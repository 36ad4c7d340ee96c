package livenode

import (
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/p2p"
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

// poolHas reports whether the node's pool holds id.
func poolHas(n *Node, id meta.DataID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.PoolHas(id)
}

// TestMetaGossipAnnounceFetchRelay walks the §15 happy path end to end on
// the fake fabric: Publish announces IDs instead of pushing bodies, the
// announced peer fetches exactly the missing item, admits it, and
// re-relays the announce onward — epidemically reaching the third node.
func TestMetaGossipAnnounceFetchRelay(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	mutate := func(cfg *Config) { cfg.GossipFanout = 2 }
	a := newSyncTestNode(t, fn, "a", 0, epoch, mutate)
	b := newSyncTestNode(t, fn, "b", 1, epoch, mutate)
	c := newSyncTestNode(t, fn, "c", 2, epoch, mutate)
	link(t, a, b, c)

	it, err := a.Publish([]byte("meta travels as an inv"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	// fakeNet delivery is synchronous: announce -> fetch -> item -> relays
	// all completed inside Publish.
	for _, n := range []*syncTestNode{b, c} {
		if !poolHas(n.Node, it.ID) {
			t.Fatalf("node %s pool lacks the published item", n.Addr())
		}
	}
	if v := counter(a.reg, "livenode.metagossip.relays"); v == 0 {
		t.Error("publisher recorded no metagossip relay")
	}
	if v := counter(a.reg, "livenode.metagossip.fetches_served"); v == 0 {
		t.Error("publisher served no meta fetches")
	}
	if v := counter(b.reg, "livenode.metagossip.fetches_sent") + counter(c.reg, "livenode.metagossip.fetches_sent"); v == 0 {
		t.Error("no peer fetched the announced item")
	}
	// Re-announcing a pooled item must suppress, not refetch.
	before := counter(b.reg, "livenode.metagossip.fetches_sent")
	b.handleFrame("a", p2p.FrameMetaAnnounce, encodeIDList([]meta.DataID{it.ID}))
	if got := counter(b.reg, "livenode.metagossip.fetches_sent"); got != before {
		t.Errorf("duplicate announce triggered a fetch (%d -> %d)", before, got)
	}
	if v := counter(b.reg, "livenode.metagossip.dup_suppressed"); v == 0 {
		t.Error("duplicate announce not counted as suppressed")
	}
}

// TestMetaGossipFetchTimeoutDropsPending verifies the deliberate §15
// divergence from the block path: an unanswered FrameGetMeta entry is
// simply forgotten after SyncTimeout — no locator fallback — and a later
// re-announce may retry it.
func TestMetaGossipFetchTimeoutDropsPending(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.GossipFanout = 2 })
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.GossipFanout = 2 })
	link(t, a, b)

	// Announce an ID nobody will serve (drop the fetch in flight).
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameGetMeta })
	id := meta.HashData([]byte("never served"))
	a.handleFrame("b", p2p.FrameMetaAnnounce, encodeIDList([]meta.DataID{id}))
	a.mu.Lock()
	pending := len(a.gossip.metas.pending)
	a.mu.Unlock()
	if pending != 1 {
		t.Fatalf("pending fetches = %d, want 1", pending)
	}
	syncs := counter(a.reg, "livenode.sync.rounds")

	a.clock.Advance(2 * time.Second) // SyncTimeout is 1s on the fabric
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
	it := testItem(b.idents()[1], "never served", b.now())
	b.mu.Lock()
	b.eng.AddLocal(it)
	b.mu.Unlock()
	a.handleFrame("b", p2p.FrameMetaAnnounce, encodeIDList([]meta.DataID{it.ID}))
	if !poolHas(a.Node, it.ID) {
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
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.GossipFanout = 2 })
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.GossipFanout = 2 })
	link(t, a, b)

	it := testItem(a.idents()[1], "forged provenance", a.now())
	it.Producer = a.cfg.Accounts[2] // signature no longer matches the producer
	a.handleFrame("b", p2p.FrameMeta, it.Encode())
	if poolHas(a.Node, it.ID) {
		t.Fatal("forged item entered the pool")
	}
	if v := counter(a.reg, "livenode.metagossip.relays"); v != 0 {
		t.Error("forged item was relayed onward")
	}
	// Its announce is now suppressed without a fetch.
	before := counter(a.reg, "livenode.metagossip.fetches_sent")
	a.handleFrame("b", p2p.FrameMetaAnnounce, encodeIDList([]meta.DataID{it.ID}))
	if got := counter(a.reg, "livenode.metagossip.fetches_sent"); got != before {
		t.Error("announce of a known-bad ID triggered a fetch")
	}
}

// TestMetaIDListCodecBounds pins the wire-codec bounds: zero-count,
// oversized-count and truncated payloads are all rejected.
func TestMetaIDListCodecBounds(t *testing.T) {
	ids := []meta.DataID{meta.HashData([]byte("x")), meta.HashData([]byte("y"))}
	enc := encodeIDList(ids)
	got, err := decodeIDList(enc)
	if err != nil || len(got) != 2 || got[0] != ids[0] || got[1] != ids[1] {
		t.Fatalf("round trip failed: %v %v", got, err)
	}
	if _, err := decodeIDList(encodeIDList(nil)); err == nil {
		t.Error("zero-count payload accepted")
	}
	over := make([]meta.DataID, maxMetaBatch+1)
	if _, err := decodeIDList(encodeIDList(over)); err == nil {
		t.Error("oversized count accepted")
	}
	if _, err := decodeIDList(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := decodeIDList(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestSigCacheCountersPublished follows one item from relay to block
// adoption at a peer: ed25519 runs at the relay (a miss), the block that
// packs the item finds the signature cached (a hit), and both counts
// reach the registry with the chain gauges.
func TestSigCacheCountersPublished(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := newFakeClock(epoch)
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
}
