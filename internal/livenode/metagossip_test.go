package livenode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// testItem builds a signed metadata item from one of the roster identities.
func testItem(ident *identity.Identity, content string, now time.Duration) *meta.Item {
	it := &meta.Item{
		ID:           meta.HashData([]byte(content)),
		Type:         "Road/Congestion",
		Produced:     now,
		LocationName: "lab",
		DataSize:     len(content),
	}
	it.Sign(ident)
	return it
}

// announceOf is the FrameMetaAnnounce payload naming ids.
func announceOf(ids ...meta.DataID) []byte {
	short := make([]meta.ShortID, len(ids))
	for i, id := range ids {
		short[i] = id.ShortID()
	}
	return encodeShortIDs(short)
}

// feedItem hands n an item the way the relay does: from announces it (the
// fetch n sends back goes wherever the fabric takes it), then delivers it.
func feedItem(n *syncTestNode, from string, it *meta.Item) {
	n.handleFrame(from, p2p.FrameMetaAnnounce, announceOf(it.ID))
	n.handleFrame(from, p2p.FrameMeta, it.Encode())
}

// poolHas reports whether the node's pool holds id.
func poolHas(n *Node, id meta.DataID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.PoolHas(id)
}

// metaTrio is three linked nodes, each on its own fake clock.
func metaTrio(t *testing.T) (fn *fakeNet, a, b, c *syncTestNode) {
	fn = newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a = newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b = newSyncTestNode(t, fn, "b", 1, epoch, nil)
	c = newSyncTestNode(t, fn, "c", 2, epoch, nil)
	link(t, a, b, c)
	return fn, a, b, c
}

func sumCounter(name string, nodes ...*syncTestNode) (v uint64) {
	for _, n := range nodes {
		v += counter(n.reg, name)
	}
	return v
}

// TestMetaTreePush walks the §15.1 primary path on the fake fabric: Publish
// pushes the item itself along the tree, every pool holds it after n−1
// bodies, and nothing follows: no announce of it leaves any node, then or
// later (the next block is the backup), and nobody fetches anything.
func TestMetaTreePush(t *testing.T) {
	fn, a, b, c := metaTrio(t)
	log := watchFrames(fn, nil)
	it, err := a.Publish([]byte("meta travels as itself"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	// fakeNet delivery is synchronous: every push completed inside Publish.
	for _, n := range []*syncTestNode{b, c} {
		if !poolHas(n.Node, it.ID) {
			t.Fatalf("node %s pool lacks the published item", n.Addr())
		}
	}
	if v := sumCounter("livenode.relay.pushed", a, b, c); v != 2 {
		t.Errorf("%d bodies pushed, want n−1 = 2", v)
	}
	if v := sumCounter("livenode.metagossip.relays", a, b, c); v != 3 {
		t.Errorf("metagossip.relays sums to %d, want one per node", v)
	}
	for _, n := range []*syncTestNode{a, b, c} {
		n.clock.Advance(2 * syncTimeout) // past any timer a backup announce could wait on
	}
	for _, name := range []string{"livenode.relay.dup_bodies", "livenode.relay.fallback_announces", "livenode.relay.lazy_ids",
		"livenode.relay.routed_around", "livenode.metagossip.fetches_sent", "livenode.metagossip.dup_suppressed"} {
		if v := sumCounter(name, a, b, c); v != 0 {
			t.Errorf("%s = %d on the push path, want 0", name, v)
		}
	}
	if n := log.count(p2p.FrameMetaAnnounce) + log.count(p2p.FrameGetMeta); n != 0 {
		t.Errorf("%d announce or fetch frames behind a push that reached every pool, want 0", n)
	}
}

// TestMetaGossipAnnounceFetchRelay walks the announce path that is left:
// every pushed body is lost, so the item waits in its producer's pool until
// its producer re-announces it (reannounceStale, run here on a block two T0
// past its signing) to one sampled peer; that peer fetches exactly the
// missing item, admits it, and — it had to be fetched — announces it at once
// to a full fan-out sample, from which the last peer fetches it in turn.
func TestMetaGossipAnnounceFetchRelay(t *testing.T) {
	fn, a, b, c := metaTrio(t)
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameMeta })
	it, err := a.Publish([]byte("meta travels as an inv"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if poolHas(b.Node, it.ID) || poolHas(c.Node, it.ID) {
		t.Fatal("a dropped push was delivered")
	}
	fn.setDrop(nil)
	a.reannounceStale(&block.Block{Timestamp: it.Produced + 2*a.cfg.PoS.T0 + time.Second})
	if v := counter(a.reg, "livenode.relay.stale_reannounced"); v != 1 {
		t.Fatalf("stale_reannounced = %d, want the one stranded item", v)
	}
	for _, n := range []*syncTestNode{b, c} {
		if !poolHas(n.Node, it.ID) {
			t.Fatalf("node %s pool lacks the announced item", n.Addr())
		}
		if v := counter(n.reg, "livenode.relay.fallback_announces"); v != 1 {
			t.Errorf("node %s: fallback_announces = %d, want 1 (the item was fetched)", n.Addr(), v)
		}
		if v := counter(n.reg, "livenode.relay.pushed"); v != 0 {
			t.Errorf("node %s pushed a fetched item %d times", n.Addr(), v)
		}
	}
	// a's announce reaches one peer, whose fallback announce reaches the
	// other: each announcer serves one fetch.
	if v := sumCounter("livenode.metagossip.fetches_served", a, b, c); v != 2 {
		t.Errorf("%d meta fetches served, want 2", v)
	}
	if v := sumCounter("livenode.metagossip.fetches_sent", b, c); v != 2 {
		t.Errorf("%d fetches sent, want one per peer", v)
	}
	// Re-announcing a pooled item must suppress, not refetch.
	before := counter(b.reg, "livenode.metagossip.fetches_sent")
	b.handleFrame("a", p2p.FrameMetaAnnounce, announceOf(it.ID))
	if got := counter(b.reg, "livenode.metagossip.fetches_sent"); got != before {
		t.Errorf("duplicate announce triggered a fetch (%d -> %d)", before, got)
	}
	if v := counter(b.reg, "livenode.metagossip.dup_suppressed"); v == 0 {
		t.Error("duplicate announce not counted as suppressed")
	}
}

// TestMetaStaleReannounced is the relay's pull side, driven by real blocks.
// Every push of one item is lost, so it sits in its producer's pool with no
// announce and no retry timer anywhere; the producer never wins a round, so
// no block packs it. Two T0 later the next block it adopts makes it announce
// the item again, to one peer, and the fallback path carries it to every pool.
func TestMetaStaleReannounced(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	c := newGossipTestNode(t, fn, clk, "c", 2, epoch, nil)
	link(t, a, b, c)
	a.stopMining()
	c.stopMining()

	log := watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameMeta })
	it, err := a.Publish([]byte("stranded"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * syncTimeout)
	if n := log.count(p2p.FrameMetaAnnounce) + log.count(p2p.FrameGetMeta); n != 0 || poolHas(b.Node, it.ID) || poolHas(c.Node, it.ID) {
		t.Fatalf("%d announce or fetch frames, want the item stranded with nothing on the wire", n)
	}
	log.drop = nil

	for i := 0; i < 6 && counter(a.reg, "livenode.relay.stale_reannounced") == 0; i++ {
		b.mineBlocks(t, 1)
		a.stopMining()
		c.stopMining()
		if young := b.Tip().Timestamp <= it.Produced+2*a.cfg.PoS.T0; young && counter(a.reg, "livenode.relay.stale_reannounced") != 0 {
			t.Fatalf("re-announced %v after it was signed, before 2·T0", b.Tip().Timestamp-it.Produced)
		}
	}
	if v := counter(a.reg, "livenode.relay.stale_reannounced"); v != 1 {
		t.Fatalf("stale_reannounced = %d, want the one stranded item once", v)
	}
	for _, n := range []*syncTestNode{b, c} {
		if !poolHas(n.Node, it.ID) {
			t.Errorf("node %s still lacks the item after the re-announce", n.Addr())
		}
	}
	if v := sumCounter("livenode.relay.fallback_announces", b, c); v == 0 {
		t.Error("the refetched item was not passed on by the fallback path")
	}
	if a.Height() == 0 || a.Height() != b.Height() {
		t.Errorf("heights a=%d b=%d: the blocks themselves did not arrive", a.Height(), b.Height())
	}
}

// TestMetaGossipFetchTimeoutDropsPending verifies the deliberate §15
// divergence from the block path: an unanswered FrameGetMeta entry is
// simply forgotten after syncTimeout — no locator fallback — and a later
// re-announce may retry it.
func TestMetaGossipFetchTimeoutDropsPending(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	link(t, a, b)

	// Announce an ID nobody will serve (drop the fetch in flight).
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameGetMeta })
	id := meta.HashData([]byte("never served"))
	a.handleFrame("b", p2p.FrameMetaAnnounce, announceOf(id))
	a.mu.Lock()
	pending := len(a.gossip.metas.pending)
	a.mu.Unlock()
	if pending != 1 {
		t.Fatalf("pending fetches = %d, want 1", pending)
	}
	syncs := counter(a.reg, "livenode.sync.rounds")

	a.clock.Advance(syncTimeout)
	a.mu.Lock()
	pending = len(a.gossip.metas.pending)
	a.mu.Unlock()
	if pending != 0 {
		t.Fatalf("pending fetch survived its timeout")
	}
	if v := counter(a.reg, "livenode.metagossip.fetch_timeouts"); v != 1 {
		t.Fatalf("fetch_timeouts = %d, want 1", v)
	}
	if got := counter(a.reg, "livenode.sync.rounds"); got != syncs {
		t.Errorf("meta fetch timeout started a sync round (%d -> %d): §15 has no locator fallback", syncs, got)
	}

	// A later announce retries the same ID, and this time it is served.
	fn.setDrop(nil)
	it, err := b.Publish([]byte("never served"), "Road/Congestion", "lab")
	if err != nil || it.ID != id {
		t.Fatalf("publish: %v, ID %s, want %s", err, it.ID.Short(), id.Short())
	}
	if !poolHas(a.Node, id) {
		t.Fatal("re-announce after timeout did not refetch the item")
	}
}

// idents exposes the test roster identities matching the node's accounts.
func (n *syncTestNode) idents() []*identity.Identity {
	idents, _ := testRoster(len(n.cfg.Accounts))
	return idents
}

// TestMetaGossipForgedItemNotPooledNotRelayed feeds a FrameMeta whose
// signature does not verify: it must not enter the pool, must not be
// re-relayed, and its ID joins the seen set so a re-announce of the same
// forgery is not refetched.
func TestMetaGossipForgedItemNotPooledNotRelayed(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	link(t, a, b)

	it := testItem(a.idents()[1], "forged provenance", a.now())
	it.DataSize++ // a signed field edited after signing (a foreign Producer has no wire form)
	feedItem(a, "b", it)
	if poolHas(a.Node, it.ID) {
		t.Fatal("forged item entered the pool")
	}
	if v := counter(a.reg, "livenode.metagossip.relays"); v != 0 {
		t.Error("forged item was relayed onward")
	}
	// Its announce is now suppressed without a fetch.
	before := counter(a.reg, "livenode.metagossip.fetches_sent")
	a.handleFrame("b", p2p.FrameMetaAnnounce, announceOf(it.ID))
	if got := counter(a.reg, "livenode.metagossip.fetches_sent"); got != before {
		t.Error("announce of a known-bad ID triggered a fetch")
	}
}

// TestMetaIDListCodecBounds pins the ID-list codec byte for byte — the count,
// the 8-byte short IDs back to back — and its bounds: count 0, an oversized
// count, a payload shorter or longer than the count says, and a length that is
// not a multiple of 8 are all rejected, and none of them allocates a result.
func TestMetaIDListCodecBounds(t *testing.T) {
	x, y := meta.HashData([]byte("x")), meta.HashData([]byte("y"))
	short := encodeShortIDs([]meta.ShortID{x.ShortID(), y.ShortID()})
	if want := append(append([]byte{2}, x[:8]...), y[:8]...); !bytes.Equal(short, want) {
		t.Fatalf("list encodes as %x, want %x", short, want)
	}
	if len(announceOf(x))+5 != 14 { // p2p frame header: type byte + length word
		t.Errorf("a single-ID announce is %d B on the wire, want 14", len(announceOf(x))+5)
	}
	if sh, err := decodeIDList(short); err != nil || len(sh) != 2 || sh[0] != x.ShortID() || sh[1] != y.ShortID() {
		t.Fatalf("round trip: %v %v", sh, err)
	}
	big := encodeShortIDs(make([]meta.ShortID, maxMetaBatch))
	if sh, err := decodeIDList(big); err != nil || len(sh) != maxMetaBatch || len(big) != 1+8*maxMetaBatch {
		t.Fatalf("a full batch of %d (%d B) rejected: %v", maxMetaBatch, len(big), err)
	}
	bad := map[string][]byte{
		"empty payload":                     nil,
		"unfinished count word":             {0x80},
		"padded count word":                 append([]byte{0x82, 0x00}, short[1:]...),
		"count 0":                           encodeShortIDs(nil),
		"oversized count":                   encodeShortIDs(make([]meta.ShortID, maxMetaBatch+1)),
		"count far past the payload":        putUv(nil, 1<<60),
		"truncated":                         short[:len(short)-1],
		"trailing byte":                     append(append([]byte(nil), short...), 0),
		"length not a multiple of 8":        append(putUv(nil, 2), make([]byte, 12)...),
		"a full ID under a count of one":    append(putUv(nil, 1), x[:]...),
		"two full IDs under a count of two": append(append(putUv(nil, 2), x[:]...), y[:]...),
	}
	for name, payload := range bad {
		var err error
		allocs := testing.AllocsPerRun(10, func() { _, err = decodeIDList(payload) })
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if allocs > 1 { // the reader; never a list sized by the count word
			t.Errorf("%s: %.0f allocations before the rejection", name, allocs)
		}
	}
}

// TestSigCacheCountersPublished follows one item from relay to block
// adoption at a peer: ed25519 runs at the relay (a miss), the block that
// packs the item finds the signature cached (a hit), and both counts
// reach the registry with the chain gauges.
func TestSigCacheCountersPublished(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	b.stopMining()
	link(t, a, b)

	it, err := a.Publish([]byte("verified once"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if !poolHas(b.Node, it.ID) {
		t.Fatal("peer never pooled the published item")
	}
	a.mineBlocks(t, 1)
	if b.Height() != 1 || len(b.Tip().Items) != 1 {
		t.Fatalf("peer at height %d with %d items, want the block packing the item", b.Height(), len(b.Tip().Items))
	}
	if hits, misses := counter(b.reg, "livenode.sigcache.hits"), counter(b.reg, "livenode.sigcache.misses"); hits != 1 || misses != 1 {
		t.Fatalf("sigcache hits/misses = %d/%d, want 1/1", hits, misses)
	}
	if first := counter(b.reg, "livenode.sigcache.first_checks"); first != 1 {
		t.Fatalf("sigcache first_checks = %d after the key's first miss, want 1", first)
	}
	// A second item from the same producer is the key's second miss on b:
	// it builds the key's tables ("Verify fast"), and the gauges say so.
	if _, err := a.Publish([]byte("verified fast"), "Road/Congestion", "lab"); err != nil {
		t.Fatal(err)
	}
	a.mineBlocks(t, 1)
	if hits, misses := counter(b.reg, "livenode.sigcache.hits"), counter(b.reg, "livenode.sigcache.misses"); hits != 2 || misses != 2 {
		t.Fatalf("sigcache hits/misses = %d/%d, want 2/2", hits, misses)
	}
	if tabled, held := counter(b.reg, "livenode.sigcache.keys_tabled"), b.reg.Snapshot().Gauge("livenode.sigcache.tables_held"); tabled != 1 || held != 1 {
		t.Fatalf("sigcache keys_tabled/tables_held = %d/%d, want 1/1", tabled, held)
	}
	// The second miss ran on the tables, so first checks stay at one.
	if first := counter(b.reg, "livenode.sigcache.first_checks"); first != 1 {
		t.Fatalf("sigcache first_checks = %d after a tabled miss, want 1", first)
	}
}

// sentFrame is one frame a spy endpoint received.
type sentFrame struct {
	ft      byte
	payload []byte
}

// spyOn joins the fabric as a bare endpoint linked to n and records what n
// sends it: a peer that hears announces and answers nothing.
func spyOn(t *testing.T, fn *fakeNet, n *syncTestNode, name string) *[]sentFrame {
	t.Helper()
	got := new([]sentFrame)
	fn.endpoint(name, p2p.HandlerFunc(func(_ string, ft byte, payload []byte) {
		*got = append(*got, sentFrame{ft, append([]byte(nil), payload...)})
	}))
	if err := n.net.Connect(name); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMetaPushedItemPaidOnce: a FrameMeta nobody asked for is a push. A valid
// one is admitted behind one signature check and passed on to the tree
// neighbours, never back to its sender; a second copy is dropped before
// decode. A forged one costs one signature check too, pools and relays
// nothing, and its second copy is dropped unread as well.
func TestMetaPushedItemPaidOnce(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	spy, other := spyOn(t, fn, a, "spy"), spyOn(t, fn, a, "other")

	it := testItem(a.idents()[1], "nobody asked", a.now())
	forged := testItem(a.idents()[1], "nobody signed", a.now())
	forged.DataSize++
	for i, tc := range []struct {
		item   *meta.Item
		pooled bool
	}{{it, true}, {forged, false}} {
		for round := 0; round < 2; round++ {
			a.handleFrame("spy", p2p.FrameMeta, tc.item.Encode())
		}
		if poolHas(a.Node, tc.item.ID) != tc.pooled {
			t.Fatalf("case %d: pooled %v, want %v", i, !tc.pooled, tc.pooled)
		}
		a.mu.Lock()
		_, checks := a.eng.SigCacheStats()
		a.mu.Unlock()
		if checks != uint64(i+1) {
			t.Errorf("case %d: %d signature checks so far, want one per distinct item", i, checks)
		}
		if v := counter(a.reg, "livenode.relay.dup_bodies"); v != uint64(i+1) {
			t.Errorf("case %d: dup_bodies = %d, want one per second copy", i, v)
		}
	}
	if len(*spy) != 0 {
		t.Fatalf("a pushed item went back to its sender: %v", *spy)
	}
	short := it.ID.ShortID()
	onward := treePeers(a, []string{"a", "other", "spy"}, binary.BigEndian.Uint64(short[:]), "spy")
	if len(*other) != len(onward) || len(onward) == 1 && ((*other)[0].ft != p2p.FrameMeta || !bytes.Equal((*other)[0].payload, it.Encode())) {
		t.Fatalf("the other peer got %v, want the valid item once if it is a's tree neighbour (%v)", *other, onward)
	}
}

// TestMetaGetShortUnknownSilence: a short-ID FrameGetMeta naming nothing this
// node announced is answered with silence, and counted.
func TestMetaGetShortUnknownSilence(t *testing.T) {
	fn := newFakeNet()
	a := newSyncTestNode(t, fn, "a", 0, time.Unix(1700000000, 0), nil)
	spy := spyOn(t, fn, a, "spy")
	it, err := a.Publish([]byte("the one thing a knows"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	*spy = nil // the published item, pushed
	a.handleFrame("spy", p2p.FrameGetMeta, announceOf(meta.HashData([]byte("never heard of"))))
	if len(*spy) != 0 {
		t.Fatalf("unknown short ID answered with %d frames", len(*spy))
	}
	if v := counter(a.reg, "livenode.metagossip.short_unresolved"); v != 1 {
		t.Errorf("short_unresolved = %d, want 1", v)
	}
	a.handleFrame("spy", p2p.FrameGetMeta, announceOf(it.ID))
	if len(*spy) != 1 || (*spy)[0].ft != p2p.FrameMeta || !bytes.Equal((*spy)[0].payload, it.Encode()) {
		t.Fatalf("known short ID answered with %v, want the item", *spy)
	}
}

// TestMetaForgedPrefix: an item forged to share a pooled item's 8-byte prefix
// loses its announce, and a block that packs it one locator round. It is not
// fetched on announce and neither displaces nor alters the pooled item; when a
// block packs it, the compact reference resolves to the pooled item, the
// rebuilt block fails its hash, and a single locator round against the sender
// ships the block in full and adopts it; and the short ID keeps naming the
// item that held it first.
func TestMetaForgedPrefix(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	a.stopMining()
	honest, err := a.Publish([]byte("pooled first"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	// Anyone on the roster may sign any ID: b's twin takes honest's prefix.
	twin := &meta.Item{ID: meta.HashData([]byte("forged twin")), Type: "Road/Congestion", DataSize: 11}
	copy(twin.ID[:], honest.ID[:len(meta.ShortID{})])
	twin.Sign(b.idents()[1])
	if twin.ID == honest.ID || twin.ID.ShortID() != honest.ID.ShortID() {
		t.Fatal("twin does not share exactly the prefix")
	}
	b.mu.Lock()
	b.eng.AddLocal(twin)
	b.gossip.metaKnown.Add(twin.ID.ShortID(), twin.ID) // what Publish does
	b.mu.Unlock()
	link(t, a, b)
	spy := spyOn(t, fn, a, "spy")

	a.handleFrame("b", p2p.FrameMetaAnnounce, announceOf(twin.ID))
	if v := counter(a.reg, "livenode.metagossip.fetches_sent"); v != 0 {
		t.Errorf("announce of a shared prefix fetched %d items", v)
	}
	pooled := func() []byte {
		a.mu.Lock()
		defer a.mu.Unlock()
		if it := a.eng.PoolItem(honest.ID); it != nil {
			return it.Encode()
		}
		return nil
	}
	if got := a.PoolIDs(); len(got) != 1 || !bytes.Equal(pooled(), honest.Encode()) {
		t.Fatalf("pool %v after the twin's announce, want the honest item untouched", got)
	}

	b.mineBlocks(t, 1)
	blk := b.Tip()
	if len(blk.Items) != 1 || blk.Items[0].ID != twin.ID {
		t.Fatalf("b's block packs %d items, want the twin alone", len(blk.Items))
	}
	log := watchFrames(fn, nil)
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d: the block packing the twin was not adopted", a.Height())
	}
	if v := counter(a.reg, "livenode.gossip.compact_items_missing"); v != 0 {
		t.Errorf("compact_items_missing = %d, want 0: the reference resolved, to the wrong item", v)
	}
	if v := counter(a.reg, "livenode.gossip.compact_fallbacks"); v != 1 {
		t.Errorf("compact_fallbacks = %d, want 1 (the rebuilt hash fails)", v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Errorf("sync.rounds = %d, want exactly one locator round", v)
	}
	if n := log.count(p2p.FrameGetMeta); n != 0 {
		t.Errorf("%d FrameGetMeta frames: nothing was missing", n)
	}
	if got := a.PoolIDs(); len(got) != 1 || !bytes.Equal(pooled(), honest.Encode()) {
		t.Fatalf("pool %v after adopting the twin's block, want the honest item untouched", got)
	}
	*spy = nil
	a.handleFrame("spy", p2p.FrameGetMeta, announceOf(honest.ID))
	if len(*spy) != 1 || !bytes.Equal((*spy)[0].payload, honest.Encode()) {
		t.Fatalf("the shared short ID now resolves to %v, want the honest item", *spy)
	}
}

// TestMetaKnownEviction prices the bounded table: an item still pooled whose
// entry was evicted is fetched once more when announced again, refused by
// AddMetadata, counted, and neither re-relayed nor allowed to change the pool.
func TestMetaKnownEviction(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	link(t, a, b)
	it, err := b.Publish([]byte("outlives its table entry"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	if !poolHas(a.Node, it.ID) {
		t.Fatal("a never pooled the published item")
	}
	a.mu.Lock()
	for i := 0; i < metaSeenCap; i++ {
		id := meta.HashData([]byte{byte(i), byte(i >> 8)})
		a.gossip.metaKnown.Add(id.ShortID(), id)
	}
	evicted := !a.gossip.metaKnown.Has(it.ID.ShortID())
	a.mu.Unlock()
	if !evicted {
		t.Fatalf("%d newer entries did not evict the item", metaSeenCap)
	}
	pool, relays, sent := sortedPool(a), counter(a.reg, "livenode.metagossip.relays"), counter(a.reg, "livenode.metagossip.fetches_sent")

	a.handleFrame("b", p2p.FrameMetaAnnounce, announceOf(it.ID))
	if got := counter(a.reg, "livenode.metagossip.fetches_sent"); got != sent+1 {
		t.Errorf("fetches_sent %d -> %d, want one refetch", sent, got)
	}
	if v := counter(a.reg, "livenode.metagossip.refetched_held"); v != 1 {
		t.Errorf("refetched_held = %d, want 1", v)
	}
	if got := counter(a.reg, "livenode.metagossip.relays"); got != relays {
		t.Errorf("the refetched item was relayed again (%d -> %d)", relays, got)
	}
	if got := sortedPool(a); fmt.Sprint(got) != fmt.Sprint(pool) {
		t.Error("pool changed across the refetch")
	}
	// The refetch put the entry back: the next announce is a duplicate.
	a.handleFrame("b", p2p.FrameMetaAnnounce, announceOf(it.ID))
	if got := counter(a.reg, "livenode.metagossip.fetches_sent"); got != sent+1 {
		t.Errorf("fetches_sent = %d after a third announce, want %d", got, sent+1)
	}
}
