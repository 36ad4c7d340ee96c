package livenode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/sim"
)

// Compact block relay (DESIGN.md §13.1) on the fake fabric: delivery is
// synchronous, so a whole announce → compact → item fetch → adopt → relay
// cascade completes inside one handleFrame call.

// frameLog records every frame the fabric carries (as its drop filter) and
// optionally loses some.
type frameLog struct {
	mu   sync.Mutex
	seen map[byte]int
	drop func(from, to string, ft byte) bool
}

func watchFrames(fn *fakeNet, drop func(from, to string, ft byte) bool) *frameLog {
	l := &frameLog{seen: make(map[byte]int), drop: drop}
	fn.setDrop(func(from, to string, ft byte) bool {
		l.mu.Lock()
		l.seen[ft]++
		l.mu.Unlock()
		return l.drop != nil && l.drop(from, to, ft)
	})
	return l
}

func (l *frameLog) count(ft byte) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[ft]
}

// compactCluster is three gossip nodes on one clock. b holds `items`
// published items nobody else has heard of and a block packing them; the
// nodes are linked only afterwards, so a and c start with empty pools.
func compactCluster(t *testing.T, items int, mutate func(cfg *Config)) (fn *fakeNet, a, b, c *syncTestNode, blk *block.Block) {
	t.Helper()
	fn = newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b = newGossipTestNode(t, fn, clk, "b", 1, epoch, mutate)
	a = newGossipTestNode(t, fn, clk, "a", 0, epoch, mutate)
	c = newGossipTestNode(t, fn, clk, "c", 2, epoch, mutate)
	a.stopMining()
	c.stopMining()
	for i := 0; i < items; i++ {
		if _, err := b.Publish([]byte(fmt.Sprintf("compact item %d", i)), "Air/PM2.5", "lab"); err != nil {
			t.Fatal(err)
		}
	}
	b.mineBlocks(t, 1)
	blk = b.Tip()
	if len(blk.Items) != items {
		t.Fatalf("mined block packs %d items, want %d", len(blk.Items), items)
	}
	link(t, a, b, c)
	return fn, a, b, c, blk
}

func sortedPool(n *syncTestNode) []meta.DataID {
	ids := n.PoolIDs()
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
	return ids
}

func parked(n *syncTestNode, h block.Hash) *pendingFetch {
	n.mu.Lock()
	defer n.mu.Unlock()
	if pf := n.gossip.blocks.pending[h]; pf != nil && pf.compact != nil {
		return pf
	}
	return nil
}

// TestCompactRebuiltFromPool: a receiver that already pools every item
// gets the block as header + IDs, asks for nothing else, and adopts the
// same bytes the miner sealed.
func TestCompactRebuiltFromPool(t *testing.T) {
	fn, a, b, _, blk := compactCluster(t, 5, nil)
	for _, it := range blk.Items {
		bare := it.Clone()
		bare.StoringNodes = nil
		feedItem(a, "c", bare) // through AddMetadata, like any relayed item
	}
	log := watchFrames(fn, nil)
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))

	if got := a.Tip(); got.Hash != blk.Hash || string(got.Encode()) != string(blk.Encode()) {
		t.Fatal("receiver did not adopt the miner's block byte for byte")
	}
	if n := log.count(p2p.FrameCompactBlock); n != 2 { // to a, then to c after a's relay
		t.Errorf("%d compact frames on the wire, want 2", n)
	}
	if v := counter(a.reg, "livenode.gossip.compact_rebuilt"); v != 1 {
		t.Errorf("compact_rebuilt = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.gossip.compact_items_missing"); v != 0 {
		t.Errorf("compact_items_missing = %d with a full pool", v)
	}
	if v := counter(b.reg, "livenode.metagossip.fetches_served"); v != 0 {
		t.Errorf("b was asked for %d items by a receiver that held them all", v)
	}
	// The saving: b answered one fetch (a's) and announced; had it sent the
	// body in full, block-plane bytes would exceed the block's own size.
	if sent, full := counter(b.reg, "livenode.wire.block_bytes"), uint64(blk.EncodedSize()); sent*2 > full {
		t.Errorf("b put %d block-plane bytes on the wire for a %d-byte block", sent, full)
	}
	if len(a.PoolIDs()) != 0 {
		t.Error("packed items still pooled after adoption")
	}
}

// TestCompactMissingItemsFetched is the miss path end to end: an empty
// pool, so every referenced item is requested from the announcer (one
// FrameGetMeta), arrives through AddMetadata, and the parked body is then
// rebuilt, adopted and relayed — where the next node repeats the exchange
// against items that by now are on the relayer's chain, not in its pool
// (the metadata relay is cut, or c would have pooled them a step earlier).
func TestCompactMissingItemsFetched(t *testing.T) {
	fn, a, b, c, blk := compactCluster(t, 3, nil)
	log := watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameMetaAnnounce })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))

	for _, n := range []*syncTestNode{a, c} {
		if got := n.Tip(); got.Hash != blk.Hash {
			t.Fatalf("node %s at height %d did not adopt the announced block", n.Addr(), n.Height())
		}
		if v := counter(n.reg, "livenode.gossip.compact_items_missing"); v != 3 {
			t.Errorf("node %s: compact_items_missing = %d, want 3", n.Addr(), v)
		}
		if v := counter(n.reg, "livenode.gossip.compact_rebuilt"); v != 1 {
			t.Errorf("node %s: compact_rebuilt = %d, want 1", n.Addr(), v)
		}
		if v := counter(n.reg, "livenode.gossip.compact_fallbacks") + counter(n.reg, "livenode.sync.rounds"); v != 0 {
			t.Errorf("node %s: %d fallbacks/sync rounds on a path that lost nothing", n.Addr(), v)
		}
		if len(n.PoolIDs()) != 0 {
			t.Errorf("node %s: packed items still pooled", n.Addr())
		}
	}
	if n := log.count(p2p.FrameGetMeta); n != 2 {
		t.Errorf("%d FrameGetMeta frames, want one per receiver", n)
	}
	if n := log.count(p2p.FrameMeta); n != 6 {
		t.Errorf("%d FrameMeta frames, want 3 per receiver", n)
	}
	if v := counter(a.reg, "livenode.metagossip.fetches_served"); v != 3 {
		t.Errorf("a served %d items to c from its chain, want 3", v)
	}
	if v := counter(b.reg, "livenode.gossip.relays") + counter(a.reg, "livenode.gossip.relays"); v == 0 {
		t.Error("adopted block was not relayed")
	}
}

// TestCompactMissAnnounceNotFetchedTwice: every ID a parked body waits for is
// a pending metadata fetch, so an announce of one between the compact body and
// the item is a duplicate — one FrameGetMeta names it, the miss path's — and
// the arriving item ends both the fetch and the wait.
func TestCompactMissAnnounceNotFetchedTwice(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, 3, nil)
	log := watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameMeta || ft == p2p.FrameMetaAnnounce })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if parked(a, blk.Hash) == nil {
		t.Fatal("body not parked")
	}
	a.handleFrame("c", p2p.FrameMetaAnnounce, announceOf(blk.Items[1].ID))
	if n := log.count(p2p.FrameGetMeta); n != 1 {
		t.Errorf("%d FrameGetMeta frames, want the miss path's alone", n)
	}
	if sent, dup := counter(a.reg, "livenode.metagossip.fetches_sent"), counter(a.reg, "livenode.metagossip.dup_suppressed"); sent != 0 || dup != 1 {
		t.Errorf("announce mid-miss: fetches_sent %d, dup_suppressed %d, want 0 and 1", sent, dup)
	}
	for _, it := range blk.Items {
		bare := it.Clone()
		bare.StoringNodes = nil
		a.handleFrame("b", p2p.FrameMeta, bare.Encode())
	}
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d: the items did not complete the parked body", a.Height())
	}
	a.mu.Lock()
	left := len(a.gossip.metas.pending)
	a.mu.Unlock()
	if left != 0 {
		t.Errorf("%d metadata fetches still pending after their items arrived", left)
	}
}

// TestCompactSilentAnnouncerFallsBackToLocator: the announcer answers the
// block fetch but never the item fetch. The body stays parked under the
// fetch's own timer; its expiry hands the block to the locator path, which
// ships the full body.
func TestCompactSilentAnnouncerFallsBackToLocator(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, 3, nil)
	watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameGetMeta })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if a.Height() != 0 || parked(a, blk.Hash) == nil {
		t.Fatalf("height %d, parked %v: want the body parked", a.Height(), parked(a, blk.Hash) != nil)
	}
	// A duplicate delivery of the compact frame neither re-requests nor
	// re-parks.
	missing := counter(a.reg, "livenode.gossip.compact_items_missing")
	a.handleFrame("b", p2p.FrameCompactBlock, blk.EncodeCompact())
	if v := counter(a.reg, "livenode.gossip.compact_items_missing"); v != missing {
		t.Errorf("duplicate compact frame counted %d more missing items", v-missing)
	}

	fn.setDrop(nil)
	a.clock.Advance(3 * syncTimeout / 2)
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d after the timeout: locator sync did not deliver the block", a.Height())
	}
	if v := counter(a.reg, "livenode.gossip.compact_fallbacks"); v != 1 {
		t.Errorf("compact_fallbacks = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.gossip.compact_rebuilt"); v != 0 {
		t.Errorf("compact_rebuilt = %d, want 0", v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Errorf("sync.rounds = %d, want 1", v)
	}
	a.mu.Lock()
	left := len(a.gossip.blocks.pending)
	a.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pending fetches after the fallback", left)
	}
}

// TestCompactTooManyMissingGoesStraightToLocator: with more unresolved
// items than the metadata fetch table holds, no FrameGetMeta burst is sent
// at all; the block comes through the locator path at once.
func TestCompactTooManyMissingGoesStraightToLocator(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, maxPendingMetaFetch+1, func(cfg *Config) { cfg.StorageCapacity = 4096 })
	log := watchFrames(fn, nil)
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d: locator path did not deliver the block", a.Height())
	}
	if n := log.count(p2p.FrameGetMeta); n != 0 {
		t.Errorf("%d FrameGetMeta frames for %d missing items", n, len(blk.Items))
	}
	if v := counter(a.reg, "livenode.gossip.compact_fallbacks"); v != 1 {
		t.Errorf("compact_fallbacks = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.sync.blocks_fetched"); v != 1 {
		t.Errorf("sync.blocks_fetched = %d, want 1", v)
	}
}

// TestCompactFetchBurstIsChunked: up to the bound, missing IDs go out in
// frames of at most maxMetaBatch.
func TestCompactFetchBurstIsChunked(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, maxMetaBatch+5, func(cfg *Config) { cfg.StorageCapacity = 4096 })
	log := watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameMetaAnnounce })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d: block not adopted", a.Height())
	}
	// a's two frames, then c's two against a.
	if n := log.count(p2p.FrameGetMeta); n != 4 {
		t.Errorf("%d FrameGetMeta frames, want 2 per receiver", n)
	}
}

// TestCompactTamperNeverAdopts: a hostile announcer (or a pool holding a
// same-ID item from another producer, or another item under a referenced
// short ID) makes the rebuilt bytes differ from the sealed ones. Each case
// must end in the hash check — a locator round toward the announcer — and
// never in an adoption or a pool change.
func TestCompactTamperNeverAdopts(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(t *testing.T, a *syncTestNode, c *block.Compact, blk *block.Block)
	}{
		{"swapped IDs", func(_ *testing.T, _ *syncTestNode, c *block.Compact, _ *block.Block) {
			c.Refs[0].ID, c.Refs[1].ID = c.Refs[1].ID, c.Refs[0].ID
		}},
		{"altered storing nodes", func(_ *testing.T, _ *syncTestNode, c *block.Compact, _ *block.Block) {
			c.Refs[0].StoringNodes = append([]int{7}, c.Refs[0].StoringNodes...)
		}},
		{"reordered items", func(_ *testing.T, _ *syncTestNode, c *block.Compact, _ *block.Block) {
			c.Refs[0], c.Refs[2] = c.Refs[2], c.Refs[0]
		}},
		{"forged hash", func(_ *testing.T, _ *syncTestNode, c *block.Compact, _ *block.Block) {
			c.Head.Hash[5] ^= 0x40
		}},
		{"same DataID from another producer pooled", func(_ *testing.T, a *syncTestNode, _ *block.Compact, blk *block.Block) {
			// Anyone may sign metadata for content they have seen; the first
			// version to arrive wins the pool slot.
			twin := blk.Items[1].Clone()
			twin.StoringNodes = nil
			twin.Sign(a.idents()[2])
			a.mu.Lock()
			a.eng.AddLocal(twin)
			a.mu.Unlock()
		}},
		{"same-prefix impostor pooled", func(t *testing.T, a *syncTestNode, _ *block.Compact, blk *block.Block) {
			// Another valid item under the referenced short ID, admitted first:
			// metaKnown names it, and the honest item's push is a duplicate.
			impostor := testItem(a.idents()[2], "impostor", 0)
			copy(impostor.ID[:], blk.Items[1].ID[:len(meta.ShortID{})])
			impostor.Sign(a.idents()[2])
			feedItem(a, "c", impostor)
			if !poolHas(a.Node, impostor.ID) {
				t.Fatal("impostor not pooled")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fn, a, _, _, blk := compactCluster(t, 3, nil)
			cb, err := block.DecodeCompact(blk.EncodeCompact())
			if err != nil {
				t.Fatal(err)
			}
			tc.tamper(t, a, cb, blk)
			for _, it := range blk.Items {
				bare := it.Clone()
				bare.StoringNodes = nil
				feedItem(a, "c", bare)
			}
			pool := sortedPool(a)

			// The honest answer and the locator round are lost; the tampered
			// body is what arrives for the pending fetch.
			watchFrames(fn, func(from, to string, ft byte) bool {
				return ft == p2p.FrameCompactBlock || ft == p2p.FrameSyncLocator
			})
			a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, cb.Head.Hash))
			forged := cb.Head
			forged.Items = make([]*meta.Item, len(cb.Refs))
			for i, ref := range cb.Refs {
				forged.Items[i] = &meta.Item{StoringNodes: ref.StoringNodes}
				copy(forged.Items[i].ID[:], ref.ID[:]) // EncodeCompact writes the prefix alone
			}
			a.handleFrame("b", p2p.FrameCompactBlock, forged.EncodeCompact())

			if a.Height() != 0 {
				t.Fatalf("tampered compact body was adopted (height %d)", a.Height())
			}
			if v := counter(a.reg, "livenode.gossip.compact_fallbacks"); v != 1 {
				t.Errorf("compact_fallbacks = %d, want 1 (hash mismatch)", v)
			}
			if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
				t.Errorf("sync.rounds = %d, want 1 (locator toward the announcer)", v)
			}
			if got := sortedPool(a); fmt.Sprint(got) != fmt.Sprint(pool) {
				t.Errorf("pool changed across a rejected compact body")
			}
			a.mu.Lock()
			left, seen := len(a.gossip.blocks.pending), a.gossip.seen.Has(cb.Head.Hash)
			a.mu.Unlock()
			if left != 0 || !seen {
				t.Errorf("after the rejection: %d pending, hash remembered %v", left, seen)
			}
		})
	}
}

// treePeers lists whom n pushes a body keyed rot to, sender aside: its
// neighbours in the tree over all, the sorted addresses of every node.
func treePeers(n *syncTestNode, all []string, rot uint64, sender string) (out []string) {
	self := sort.SearchStrings(all, n.Addr())
	for _, r := range treeRanks(nil, len(all), self, rot, gossipFanout) {
		if all[r] != sender {
			out = append(out, all[r])
		}
	}
	return out
}

var abc = []string{"a", "b", "c"}

// TestCompactPushedBody: a compact frame nobody asked for is a push. It opens
// its own pending entry, misses go to the pusher by short ID, the rebuilt block
// is adopted through receiveBlock and goes on along the tree, never back to
// the pusher; no block announce or fetch happens anywhere. A second copy, and
// a push at or below the tip, are dropped.
func TestCompactPushedBody(t *testing.T) {
	fn, a, b, c, blk := compactCluster(t, 3, nil)
	log := watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameMetaAnnounce })
	body := blk.EncodeCompact()
	a.handleFrame("b", p2p.FrameCompactBlock, body)
	// Where the hash puts a in the tree decides whether c is its to serve.
	onward := treePeers(a, abc, binary.BigEndian.Uint64(blk.Hash[:]), "b")
	adopters := []*syncTestNode{a, c}[:1+len(onward)]
	for _, n := range adopters {
		if got := n.Tip(); got.Hash != blk.Hash {
			t.Fatalf("node %s at height %d did not adopt the pushed block", n.Addr(), n.Height())
		}
		if v := counter(n.reg, "livenode.gossip.compact_items_missing"); v != 3 {
			t.Errorf("node %s: compact_items_missing = %d, want 3", n.Addr(), v)
		}
	}
	if n := log.count(p2p.FrameBlockAnnounce) + log.count(p2p.FrameGetBlock) + log.count(p2p.FrameSyncLocator); n != 0 {
		t.Errorf("%d announce/fetch/locator frames on the push path", n)
	}
	if pushed, served := counter(a.reg, "livenode.relay.pushed"), counter(b.reg, "livenode.gossip.fetches_served"); int(pushed) != len(onward) || served != 0 {
		t.Errorf("a pushed %d bodies and b served %d fetches, want %v (never back to b) and 0", pushed, served, onward)
	}
	a.mu.Lock()
	left := len(a.gossip.blocks.pending)
	a.mu.Unlock()
	if left != 0 {
		t.Errorf("%d block fetches pending after the adoption", left)
	}

	a.handleFrame("c", p2p.FrameCompactBlock, body)
	if v := counter(a.reg, "livenode.relay.dup_bodies"); v != 1 {
		t.Errorf("dup_bodies = %d after a second copy, want 1", v)
	}
	sibling := *blk
	sibling.Hash[0] ^= 1
	a.handleFrame("c", p2p.FrameCompactBlock, sibling.EncodeCompact())
	if v := counter(a.reg, "livenode.gossip.stale_suppressed"); v != 1 {
		t.Errorf("stale_suppressed = %d after a push at our tip, want 1", v)
	}
	if n := log.count(p2p.FrameGetMeta); n != len(adopters) {
		t.Errorf("%d FrameGetMeta frames, want one miss path per adopter", n)
	}
}

// TestCompactPushOvertakesFetch: a body pushed by a peer other than the
// announcer being asked takes the pending fetch over — adopted, passed on along
// the tree — and the announcer's late answer is a duplicate.
func TestCompactPushOvertakesFetch(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, 0, nil)
	watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameGetBlock })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	a.handleFrame("c", p2p.FrameCompactBlock, blk.EncodeCompact())
	if got := a.Tip(); got.Hash != blk.Hash {
		t.Fatalf("height %d: the pushed body did not complete the pending fetch", a.Height())
	}
	onward := treePeers(a, abc, binary.BigEndian.Uint64(blk.Hash[:]), "c")
	if pushed, fallback := counter(a.reg, "livenode.relay.pushed"), counter(a.reg, "livenode.relay.fallback_announces"); int(pushed) != len(onward) || fallback != 0 {
		t.Errorf("pushed %d, fallback_announces %d, want the body passed on to %v and no announce", pushed, fallback, onward)
	}
	a.handleFrame("b", p2p.FrameCompactBlock, blk.EncodeCompact())
	if v := counter(a.reg, "livenode.relay.dup_bodies"); v != 1 {
		t.Errorf("dup_bodies = %d after the announcer's late answer, want 1", v)
	}
}

// TestCompactPushOverflowDegradesToSync pins the bounds on what unsolicited
// bodies can park, the push-path twin of TestGossipPendingOverflowDegradesToSync:
// distinct bodies above the tip, each naming items nobody will serve, fill the
// block fetch table and no more of the metadata fetch table than it holds; the
// next body is dropped for a locator round.
func TestCompactPushOverflowDegradesToSync(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, 1, nil)
	watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameGetMeta || ft == p2p.FrameSyncLocator })
	forged := func(i int) []byte {
		v := *blk
		v.Index = blk.Index + 1 + uint64(i)
		v.Hash[0], v.Hash[1] = byte(i), byte(i>>8)
		v.Items = make([]*meta.Item, 5)
		for k := range v.Items {
			v.Items[k] = &meta.Item{ID: meta.DataID{byte(i), byte(i >> 8), byte(k), 1}}
		}
		return v.EncodeCompact()
	}
	tables := func() (blocks, metas int) {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.gossip.blocks.pending), len(a.gossip.metas.pending)
	}
	for i := 0; i < maxPendingFetch; i++ {
		a.handleFrame("b", p2p.FrameCompactBlock, forged(i))
	}
	if blocks, metas := tables(); blocks != maxPendingFetch || metas != maxPendingMetaFetch {
		t.Fatalf("%d bodies parked and %d metadata fetches pending, want both tables exactly full (%d, %d)", blocks, metas, maxPendingFetch, maxPendingMetaFetch)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 0 {
		t.Fatalf("sync.rounds = %d while the table was filling, want 0", v)
	}
	a.handleFrame("b", p2p.FrameCompactBlock, forged(maxPendingFetch))
	if blocks, _ := tables(); blocks != maxPendingFetch {
		t.Errorf("%d bodies parked after the overflow push, want it dropped", blocks)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Errorf("sync.rounds = %d after the overflow push, want 1", v)
	}
}

// TestCompactParkedBodyTornDown: Close with a body parked must stop its
// timer and drop it; items arriving afterwards find nothing to complete.
func TestCompactParkedBodyTornDown(t *testing.T) {
	fn, a, _, _, blk := compactCluster(t, 3, nil)
	watchFrames(fn, func(from, to string, ft byte) bool { return ft == p2p.FrameGetMeta })
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	pf := parked(a, blk.Hash)
	if pf == nil {
		t.Fatal("body not parked")
	}
	timers := a.clock.Pending()
	a.mu.Lock()
	a.clearFetchesLocked()
	left := len(a.gossip.blocks.pending)
	a.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending fetches after teardown", left)
	}
	// The body's wait and one per missing item, each a pending metadata fetch.
	if pf.attempt != nil || a.clock.Pending() != timers-1-len(blk.Items) {
		t.Error("teardown left a timer of the parked body armed")
	}
	// b's backup announce of the block is still to come; keep it out.
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameBlockAnnounce })
	for _, it := range blk.Items {
		a.handleFrame("b", p2p.FrameMeta, it.Encode())
	}
	a.clock.Advance(3 * time.Second)
	if a.Height() != 0 {
		t.Error("a torn-down fetch still completed")
	}
	if v := counter(a.reg, "livenode.gossip.compact_fallbacks") + counter(a.reg, "livenode.sync.rounds"); v != 0 {
		t.Errorf("torn-down fetch fell back %d times", v)
	}
}

// TestCompactBodiesCompletedInFetchOrder: bodies that one arriving item
// completes (fork twins packing the same item) come back oldest fetch
// first, whatever order the pending map iterates in — the first to reach
// the engine wins the height, so the order is part of the determinism
// contract. A body still waiting for something else stays parked.
func TestCompactBodiesCompletedInFetchOrder(t *testing.T) {
	_, a, _, _, _ := compactCluster(t, 0, nil)
	id, other := meta.HashData([]byte("shared")).ShortID(), meta.HashData([]byte("other")).ShortID()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := 0; i < 24; i++ {
		h := block.Hash{byte(i), 0xcb}
		pf := a.gossip.blocks.begin(h, []string{"b"})
		pf.compact = &block.Compact{Head: block.Block{Hash: h}}
		pf.missing = map[meta.ShortID]struct{}{id: {}}
		if i%8 == 7 {
			pf.missing[other] = struct{}{}
		}
	}
	ready, blocks := a.noteCompactItemLocked(id)
	if len(ready) != 21 || len(blocks) != 21 {
		t.Fatalf("%d bodies ready with %d blocks, want 21", len(ready), len(blocks))
	}
	for i, pf := range ready {
		if i > 0 && ready[i-1].seq >= pf.seq {
			t.Fatalf("ready[%d] began as fetch %d, after %d", i, pf.seq, ready[i-1].seq)
		}
		if blocks[i] == nil || blocks[i].Hash != pf.compact.Head.Hash {
			t.Fatalf("ready[%d] paired with the wrong rebuilt block", i)
		}
	}
	if again, _ := a.noteCompactItemLocked(id); len(again) != 0 {
		t.Fatalf("%d bodies completed twice by the same item", len(again))
	}
	a.clearFetchesLocked()
}

// TestCompactResolvesSyncedItem: an item a node learned only from a block it
// synced (AdoptSuffix) is still named in metaKnown, so a compact body on a
// competing branch that packs it again is rebuilt from the chain without a
// FrameGetMeta — the restarted-node case, where nothing was ever relayed.
func TestCompactResolvesSyncedItem(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	c := newSyncTestNode(t, fn, "c", 2, epoch, nil)
	it, err := b.Publish([]byte("packed on both branches"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	b.mineBlocks(t, 1) // b's branch: one block packing the item
	c.mineBlocks(t, 1) // c's: an empty block, then the item
	c.handleFrame("b", p2p.FrameMeta, it.Encode())
	c.mineBlocks(t, 1)
	fork := c.Tip()
	if len(fork.Items) != 1 || fork.Items[0].ID != it.ID || len(b.Tip().Items) != 1 {
		t.Fatal("the branches do not both pack the item")
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.Tip().Hash != b.Tip().Hash || poolHas(a.Node, it.ID) {
		t.Fatalf("a at height %d: want b's block synced and the item never pooled", a.Height())
	}

	link(t, a, c)
	log := watchFrames(fn, nil)
	a.handleFrame("c", p2p.FrameCompactBlock, fork.EncodeCompact())
	if n := log.count(p2p.FrameGetMeta); n != 0 {
		t.Errorf("%d FrameGetMeta frames for an item on a's chain", n)
	}
	if rebuilt, missing := counter(a.reg, "livenode.gossip.compact_rebuilt"), counter(a.reg, "livenode.gossip.compact_items_missing"); rebuilt != 1 || missing != 0 {
		t.Errorf("compact_rebuilt %d, compact_items_missing %d: want the body rebuilt from the chain", rebuilt, missing)
	}
	if v := counter(a.reg, "livenode.gossip.compact_fallbacks"); v != 0 {
		t.Errorf("compact_fallbacks = %d: the rebuilt block was not the one c sealed", v)
	}
	// Its parent is on the other branch: one locator round fetches the fork.
	if a.Tip().Hash != fork.Hash || counter(a.reg, "livenode.fork.adoptions") != 1 {
		t.Fatalf("a at height %d after the compact body, want c's branch adopted", a.Height())
	}
}
