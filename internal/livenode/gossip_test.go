package livenode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// newGossipTestNode is newSyncTestNode on a shared fake clock: gossip
// delivers rebuilt blocks straight into ReceiveBlock, whose future-timestamp
// check needs the receiver's clock to match the miner's — exactly the
// real-cluster shape, where every node reads one wall clock.
func newGossipTestNode(t testing.TB, fn *fakeNet, clk *sim.VClock, name string, idx int, epoch time.Time, mutate func(cfg *Config)) *syncTestNode {
	t.Helper()
	n := newSyncTestNode(t, fn, name, idx, epoch, func(cfg *Config) {
		cfg.Clock = clk
		if mutate != nil {
			mutate(cfg)
		}
	})
	n.clock = clk
	return n
}

// stopMining disarms the node's mining timer so a shared-clock advance
// (driving another node's rounds) cannot make this one mine competing
// blocks mid-test. Adopting a block re-arms it.
func (n *syncTestNode) stopMining() {
	n.mu.Lock()
	if n.mineTimer != nil {
		n.mineTimer.Stop()
		n.mineTimer = nil
	}
	n.mu.Unlock()
}

// link wires two nodes at the transport level only — unlike
// livenode.Connect it sends no sync locator, so tests control exactly
// which frames flow.
func link(t *testing.T, nodes ...*syncTestNode) {
	t.Helper()
	for i, a := range nodes {
		for _, b := range nodes[i+1:] {
			if err := a.Node.net.Connect(b.Node.net.Addr()); err != nil {
				t.Fatal(err)
			}
			if err := b.Node.net.Connect(a.Node.net.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGossipAnnounceFetchAdopt(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	a.stopMining()
	b.mineBlocks(t, 1)
	link(t, a, b)

	tip := b.Tip()
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(tip.Index, tip.Hash))
	// fakeNet delivers synchronously: the GetBlock round trip and the
	// adoption all completed inside handleFrame.
	if got := a.Height(); got != 1 {
		t.Fatalf("height after announce/fetch = %d, want 1", got)
	}
	if a.Tip().Hash != tip.Hash {
		t.Fatal("adopted block differs from announced one")
	}
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != 1 {
		t.Errorf("gossip.fetches_sent = %d, want 1", v)
	}
	if v := counter(b.reg, "livenode.gossip.fetches_served"); v != 1 {
		t.Errorf("gossip.fetches_served = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 0 {
		t.Errorf("sync.rounds = %d, want 0 (gossip fetch, no sync)", v)
	}
	// The announce left block-propagation wire-byte evidence on both ends.
	if v := counter(a.reg, "livenode.wire.block_bytes"); v == 0 {
		t.Error("wire.block_bytes = 0 on the fetching side")
	}
	if v := counter(b.reg, "livenode.wire.block_bytes"); v == 0 {
		t.Error("wire.block_bytes = 0 on the serving side")
	}
}

// TestGossipReannounceAdoptedSuppressed is the ISSUE satellite: a
// re-announced, already-adopted hash must trigger neither a fetch nor a
// sync round — the announce-path twin of the chain.ErrDuplicate guard.
func TestGossipReannounceAdoptedSuppressed(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	a.stopMining()
	b.mineBlocks(t, 1)
	link(t, a, b)

	tip := b.Tip()
	ann := encodeAnnounce(tip.Index, tip.Hash)
	a.handleFrame("b", p2p.FrameBlockAnnounce, ann)
	if a.Height() != 1 {
		t.Fatalf("height = %d, want 1", a.Height())
	}
	fetches := counter(a.reg, "livenode.gossip.fetches_sent")
	syncRounds := counter(a.reg, "livenode.sync.rounds")

	for i := 0; i < 3; i++ {
		a.handleFrame("b", p2p.FrameBlockAnnounce, ann)
	}
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != fetches {
		t.Errorf("re-announce sent a fetch: fetches_sent %d -> %d", fetches, v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != syncRounds {
		t.Errorf("re-announce opened a sync round: sync.rounds %d -> %d", syncRounds, v)
	}
	if v := counter(a.reg, "livenode.gossip.dup_suppressed"); v != 3 {
		t.Errorf("gossip.dup_suppressed = %d, want 3", v)
	}
}

func TestGossipRelayOnAdoptExcludesSender(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	c := newGossipTestNode(t, fn, clk, "c", 2, epoch, nil)
	a.stopMining()
	c.stopMining()
	b.mineBlocks(t, 1)
	link(t, a, b, c)

	// b announces to a alone: a fetches the body from b, adopts and must
	// relay the announce to c (never back to b). c lacks the hash, fetches
	// from a, adopts, and relays onward to b — which already holds the block
	// and suppresses.
	blk := b.Tip()
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	if a.Height() != 1 || c.Height() != 1 {
		t.Fatalf("heights a=%d c=%d, want 1/1", a.Height(), c.Height())
	}
	if v := counter(a.reg, "livenode.gossip.relays"); v != 1 {
		t.Errorf("a gossip.relays = %d, want 1", v)
	}
	if v := counter(c.reg, "livenode.gossip.fetches_sent"); v != 1 {
		t.Errorf("c gossip.fetches_sent = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.gossip.fetches_served"); v != 1 {
		t.Errorf("a gossip.fetches_served = %d, want 1", v)
	}
	// b served a's fetch and no other: the relay excluded the sender, and
	// b's own copy suppressed c's onward announce.
	if v := counter(b.reg, "livenode.gossip.fetches_served"); v != 1 {
		t.Errorf("b gossip.fetches_served = %d, want 1 (announce must not return to sender)", v)
	}
	if v := counter(b.reg, "livenode.gossip.dup_suppressed"); v == 0 {
		t.Error("b gossip.dup_suppressed = 0, want > 0 (c's onward relay)")
	}
}

// TestGossipTreePush walks the §13 primary path: a mined block travels as its
// compact body along the tree, every node adopts it after n−1 bodies with no
// announce, fetch or locator, and the backup announce a quarter syncTimeout
// later finds only duplicates.
func TestGossipTreePush(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, nil)
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, nil)
	c := newGossipTestNode(t, fn, clk, "c", 2, epoch, nil)
	a.stopMining()
	c.stopMining()
	link(t, a, b, c)
	log := watchFrames(fn, nil)
	b.mineBlocks(t, 1)
	a.stopMining()
	c.stopMining()

	if a.Tip().Hash != b.Tip().Hash || c.Tip().Hash != b.Tip().Hash {
		t.Fatalf("heights a=%d c=%d after the push, want b's block on both", a.Height(), c.Height())
	}
	if n := log.count(p2p.FrameCompactBlock); n != 2 {
		t.Errorf("%d compact bodies on the wire, want n−1 = 2", n)
	}
	if n := log.count(p2p.FrameBlockAnnounce) + log.count(p2p.FrameGetBlock) + log.count(p2p.FrameSyncLocator); n != 0 {
		t.Errorf("%d announce/fetch/locator frames on the push path", n)
	}
	if v := sumCounter("livenode.relay.pushed", a, b, c); v != 2 {
		t.Errorf("relay.pushed sums to %d, want 2", v)
	}
	if v := sumCounter("livenode.relay.dup_bodies", a, b, c) + sumCounter("livenode.relay.fallback_announces", a, b, c); v != 0 {
		t.Errorf("%d duplicate bodies / fallback announces on a healthy push", v)
	}
	clk.Advance(syncTimeout / 4) // every node's backup announce
	if n, dup := log.count(p2p.FrameBlockAnnounce), sumCounter("livenode.gossip.dup_suppressed", a, b, c); n != 3*lazyPeers || int(dup) != n {
		t.Errorf("%d backup announces, %d suppressed as duplicates, want %d and all of them", n, dup, 3*lazyPeers)
	}
	if v := sumCounter("livenode.gossip.fetches_sent", a, b, c); v != 0 {
		t.Errorf("a backup announce of a delivered block drew %d fetches", v)
	}
}

// TestTreeRanksSpanningTree is the property the relay rests on, checked on the
// tree function alone: for every size, rotation and arity the neighbour
// relation is symmetric, has n−1 edges, is connected and has degree ≤ arity+1.
// Ranks are positions in the sorted peer list, so a peer that leaves every
// view is the same property one size down.
func TestTreeRanksSpanningTree(t *testing.T) {
	step := 1
	if raceEnabled || testing.Short() {
		step = 7 // every rotation is ~70 M calls; a coprime stride still hits every residue class of small n
	}
	var buf, queue []int
	for n := 1; n <= 300; n++ {
		adj := make([][]int, n)
		for k := 1; k <= 8; k++ {
			for rot := 0; rot < n; rot += step {
				edges := 0
				for r := range adj {
					// The rotation is taken mod n: one far past it must give the same tree.
					adj[r] = treeRanks(adj[r][:0], n, r, uint64(rot)+uint64(n)<<40, k)
					if buf = treeRanks(buf[:0], n, r, uint64(rot), k); !slices.Equal(buf, adj[r]) {
						t.Fatalf("n=%d k=%d rot=%d rank %d: %v, but %v for rot+n·2⁴⁰", n, k, rot, r, buf, adj[r])
					}
					if len(adj[r]) > k+1 {
						t.Fatalf("n=%d k=%d rot=%d: rank %d has degree %d", n, k, rot, r, len(adj[r]))
					}
					edges += len(adj[r])
				}
				if edges != 2*(n-1) {
					t.Fatalf("n=%d k=%d rot=%d: %d directed edges, want %d", n, k, rot, edges, 2*(n-1))
				}
				for r, nb := range adj {
					for _, q := range nb {
						if q == r || q < 0 || q >= n || !slices.Contains(adj[q], r) {
							t.Fatalf("n=%d k=%d rot=%d: edge %d→%d is not mirrored", n, k, rot, r, q)
						}
					}
				}
				// Connected: n−1 symmetric edges that reach everything are a tree.
				seen := make([]bool, n)
				seen[0], queue = true, append(queue[:0], 0)
				for i := 0; i < len(queue); i++ {
					for _, q := range adj[queue[i]] {
						if !seen[q] {
							seen[q], queue = true, append(queue, q)
						}
					}
				}
				if len(queue) != n {
					t.Fatalf("n=%d k=%d rot=%d: %d of %d ranks reachable from rank 0", n, k, rot, len(queue), n)
				}
			}
		}
	}
}

// treeFabric carries push alone, for the route-around property: a send to a
// rank in down fails at once, as memnet's radio does without a path, and any
// other is queued for the test to deliver in order.
type treeFabric struct {
	addrs []string   // rank r's address; sorted, so the ranks are the tree's
	peers [][]string // rank r's view: every other address
	down  []bool
	sent  [][2]int // from, to
}

type treeEP struct {
	p2p.Transport // Connect and Close are never called
	f             *treeFabric
	rank          int
}

func (e treeEP) Addr() string    { return e.f.addrs[e.rank] }
func (e treeEP) Peers() []string { return e.f.peers[e.rank] }

func (e treeEP) Send(to string, _ byte, _ []byte) error {
	r, _ := slices.BinarySearch(e.f.addrs, to)
	if e.f.down[r] {
		return errors.New("treeFabric: no path")
	}
	e.f.sent = append(e.f.sent, [2]int{e.rank, r})
	return nil
}

// TestPushRoutesAroundUnreachable is the route-around rule's property, run
// through push itself. On random roster sizes 2–300 and rotations, with up
// to half the ranks unreachable, a body pushed from a reachable rank and
// relayed by every rank on its first copy reaches every other reachable rank
// exactly once: a failed neighbour's other neighbours are sent it in its
// place, and nobody goes around the neighbour toward its sender again.
func TestPushRoutesAroundUnreachable(t *testing.T) {
	trees := 2000
	if raceEnabled || testing.Short() {
		trees = 200
	}
	rng := rand.New(rand.NewSource(46))
	tel := newNodeMetrics(telemetry.NewRegistry())
	for tree := 0; tree < trees; tree++ {
		size := 2 + rng.Intn(299)
		f := &treeFabric{addrs: make([]string, size), peers: make([][]string, size), down: make([]bool, size)}
		for r := range f.addrs {
			f.addrs[r] = fmt.Sprintf("n%03d", r)
		}
		nodes := make([]*Node, size)
		for r := range nodes {
			f.peers[r] = slices.Delete(slices.Clone(f.addrs), r, r+1)
			nodes[r] = &Node{net: treeEP{f: f, rank: r}, tel: tel}
		}
		perm := rng.Perm(size)
		for _, r := range perm[:rng.Intn(size/2+1)] {
			f.down[r] = true
		}
		src, rot := perm[size-1], rng.Uint64() // at most half are down: the last of perm is up
		got := make([]int, size)
		nodes[src].push(p2p.FrameMeta, nil, rot, "")
		for i := 0; i < len(f.sent); i++ {
			from, to := f.sent[i][0], f.sent[i][1]
			if got[to]++; got[to] == 1 {
				nodes[to].push(p2p.FrameMeta, nil, rot, f.addrs[from])
			}
		}
		for r, g := range got {
			want := 1
			if r == src || f.down[r] {
				want = 0
			}
			if g != want {
				t.Fatalf("tree %d (size %d, rot %d, source %d): rank %d (down %v) received %d copies, want %d", tree, size, rot, src, r, f.down[r], g, want)
			}
		}
	}
}

// TestPushRoutesAroundUnreachableParent: a producer whose tree parent the
// transport cannot reach at send time sends the item to the parent's other
// tree neighbour at once, and that neighbour, relaying on, does not go around
// the parent a second time. Every other node pools the item from the push
// alone, none twice, with no announce or fetch behind it.
func TestPushRoutesAroundUnreachableParent(t *testing.T) {
	const size = 8
	fc := newFetchCluster(t, size, nil)
	content := []byte("routed around its parent")
	short := meta.HashData(content).ShortID()
	// Rank r is node r. Over 8 ranks a 6-ary heap has one leaf below an
	// interior node: position 7, under position 1, whose other neighbour is
	// the root.
	shift := int(binary.BigEndian.Uint64(short[:]) % size)
	producer, parent := (7+shift)%size, (1+shift)%size
	fc.fn.refuse = func(_, to string) bool { return to == fc.nodes[parent].Addr() }
	log := watchFrames(fc.fn, nil)
	it, err := fc.nodes[producer].Publish(content, "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range fc.nodes {
		if held := poolHas(n.Node, it.ID); held != (i != parent) {
			t.Errorf("node %d (producer %d, parent %d) pools the item: %v", i, producer, parent, held)
		}
	}
	for name, want := range map[string]uint64{
		"livenode.relay.pushed":            size - 2,
		"livenode.relay.routed_around":     1, // the producer's; the root's failed send is toward its sender
		"livenode.relay.dup_bodies":        0,
		"livenode.metagossip.fetches_sent": 0,
	} {
		if v := sumCounter(name, fc.nodes...); v != want {
			t.Errorf("%s = %d, want %d", name, v, want)
		}
	}
	if n := log.count(p2p.FrameMetaAnnounce) + log.count(p2p.FrameGetMeta); n != 0 {
		t.Errorf("%d announce or fetch frames behind a push that went around", n)
	}
}

func TestGossipFetchTimeoutFallsBackToLocator(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b.mineBlocks(t, 1)
	link(t, a, b)

	// The announcer never answers fetches; the locator path must heal.
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameGetBlock })
	tip := b.Tip()
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(tip.Index, tip.Hash))
	if a.Height() != 0 {
		t.Fatalf("height = %d before timeout, want 0", a.Height())
	}
	a.clock.Advance(syncTimeout)
	if v := counter(a.reg, "livenode.gossip.fetch_timeouts"); v != 1 {
		t.Fatalf("gossip.fetch_timeouts = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Fatalf("sync.rounds = %d, want 1 (locator fallback)", v)
	}
	if a.Height() != 1 {
		t.Fatalf("height after locator fallback = %d, want 1", a.Height())
	}
	// A re-announce of the hash the locator path already covered must not
	// restart a fetch (it is adopted now, but the seen-LRU covered the
	// window in between).
	fetches := counter(a.reg, "livenode.gossip.fetches_sent")
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(tip.Index, tip.Hash))
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != fetches {
		t.Errorf("re-announce after timeout refetched: %d -> %d", fetches, v)
	}
}

func TestGossipStaleAndPendingSuppression(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	a.mineBlocks(t, 2)
	link(t, a, b)
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameGetBlock })

	// An announce at or below our tip cannot extend the longest chain.
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(1, block.Hash{0xaa}))
	if v := counter(a.reg, "livenode.gossip.stale_suppressed"); v != 1 {
		t.Errorf("gossip.stale_suppressed = %d, want 1", v)
	}
	// …and its hash lands in the seen-LRU: a repeat is a dup.
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(1, block.Hash{0xaa}))
	if v := counter(a.reg, "livenode.gossip.dup_suppressed"); v != 1 {
		t.Errorf("gossip.dup_suppressed = %d after stale repeat, want 1", v)
	}

	// While a fetch is pending, repeats of the same hash are suppressed.
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(3, block.Hash{0xbb}))
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != 1 {
		t.Fatalf("gossip.fetches_sent = %d, want 1", v)
	}
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(3, block.Hash{0xbb}))
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != 1 {
		t.Errorf("pending hash refetched")
	}
	if v := counter(a.reg, "livenode.gossip.dup_suppressed"); v != 2 {
		t.Errorf("gossip.dup_suppressed = %d, want 2", v)
	}
}

// TestGossipPendingOverflowDegradesToSync pins the fetch-table bound: past
// maxPendingFetch outstanding fetches the node is clearly far behind, and
// further announces open a batched sync round instead.
func TestGossipPendingOverflowDegradesToSync(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	link(t, a, b)
	fn.setDrop(func(from, to string, ft byte) bool {
		return ft == p2p.FrameGetBlock || ft == p2p.FrameSyncLocator
	})

	for i := 0; i < maxPendingFetch; i++ {
		var h block.Hash
		h[0], h[1] = byte(i), byte(i>>8)
		h[31] = 1 // never the zero hash
		a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(uint64(100+i), h))
	}
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != maxPendingFetch {
		t.Fatalf("gossip.fetches_sent = %d, want %d", v, maxPendingFetch)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 0 {
		t.Fatalf("sync.rounds = %d while table filling, want 0", v)
	}
	a.handleFrame("b", p2p.FrameBlockAnnounce, encodeAnnounce(500, block.Hash{0xff}))
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != maxPendingFetch {
		t.Errorf("overflow announce still fetched: %d", v)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Errorf("sync.rounds = %d after overflow, want 1", v)
	}
}

func TestGossipSamplingBoundedAndExcludes(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	heard := map[string]*[]sentFrame{"b": spyOn(t, fn, a, "b"), "c": spyOn(t, fn, a, "c"), "d": spyOn(t, fn, a, "d")}
	count := func() (peers, frames int) {
		for _, got := range heard {
			if frames += len(*got); len(*got) > 0 {
				peers++
			}
			*got = nil
		}
		return peers, frames
	}
	for i := 0; i < 32; i++ {
		a.announce(p2p.FrameBlockAnnounce, []byte{1}, "b", 2)
		if got := len(*heard["b"]); got != 0 {
			t.Fatalf("an announce excluding b reached it %d times", got)
		}
		if peers, frames := count(); peers != 2 || frames != 2 {
			t.Fatalf("sample of 2 excluding b reached %d peers with %d frames, want c and d once each", peers, frames)
		}
		a.announce(p2p.FrameBlockAnnounce, []byte{1}, "", 2)
		if peers, frames := count(); peers != 2 || frames != 2 {
			t.Fatalf("sample of 2 from {b,c,d} reached %d peers with %d frames", peers, frames)
		}
		a.announce(p2p.FrameBlockAnnounce, []byte{1}, "", 9)
		if peers, frames := count(); peers != 3 || frames != 3 {
			t.Fatalf("sample of 9 from 3 peers reached %d with %d frames, want all once", peers, frames)
		}
	}
}

func TestHashLRU(t *testing.T) {
	l := newSeenLRU[block.Hash, byte](3)
	h := func(i byte) block.Hash { return block.Hash{i} }
	for i := byte(1); i <= 3; i++ {
		l.Add(h(i), i)
	}
	for i := byte(1); i <= 3; i++ {
		if !l.Has(h(i)) {
			t.Fatalf("hash %d missing before eviction", i)
		}
	}
	// Re-adding a present hash must not churn the ring, nor replace its value…
	l.Add(h(2), 9)
	if v, ok := l.Get(h(2)); !ok || v != 2 {
		t.Errorf("re-added hash maps to %d, %v; want the first value, 2", v, ok)
	}
	// …so adding a fourth evicts the oldest (1), not 2 or 3.
	l.Add(h(4), 4)
	if l.Has(h(1)) {
		t.Error("oldest hash survived eviction")
	}
	for i := byte(2); i <= 4; i++ {
		if !l.Has(h(i)) {
			t.Errorf("hash %d evicted early", i)
		}
	}
	l.Add(h(5), 5)
	l.Add(h(6), 6)
	if l.Has(h(2)) || l.Has(h(3)) {
		t.Error("FIFO order violated")
	}
	if !l.Has(h(4)) || !l.Has(h(5)) || !l.Has(h(6)) {
		t.Error("recent hashes evicted")
	}
}

// TestSeenLRUMatchesFIFOModel drives seenLRU and a reference FIFO — keys in
// insertion order, a re-add ignored, the oldest dropped past capacity — with
// the same random keys, re-adds among them, through the ring's growth to
// capacity and many wraps after it. Membership and the value under every key
// must agree at each step, and the ring holds only what was added.
func TestSeenLRUMatchesFIFOModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 2, 7, 64} {
		l := newSeenLRU[uint16, int](capacity)
		var fifo []uint16
		vals := map[uint16]int{}
		keys := 3*capacity + 1
		for step := 0; step < 20*capacity+50; step++ {
			k := uint16(rng.Intn(keys))
			l.Add(k, step)
			if _, ok := vals[k]; !ok {
				fifo = append(fifo, k)
				vals[k] = step
				if len(fifo) > capacity {
					delete(vals, fifo[0])
					fifo = fifo[1:]
				}
			}
			if len(l.ring) != len(fifo) || len(l.m) != len(fifo) {
				t.Fatalf("cap %d step %d: ring %d, map %d keys; the model holds %d", capacity, step, len(l.ring), len(l.m), len(fifo))
			}
			for q := 0; q < keys; q++ {
				got, ok := l.Get(uint16(q))
				want, wantOK := vals[uint16(q)]
				if ok != wantOK || got != want || l.Has(uint16(q)) != wantOK {
					t.Fatalf("cap %d step %d key %d: got %d, %v; the model has %d, %v", capacity, step, q, got, ok, want, wantOK)
				}
			}
		}
	}
	if l := newSeenLRU[block.Hash, struct{}](gossipSeenCap); cap(l.ring) != 0 {
		t.Errorf("an empty seen-set holds a ring of %d slots", cap(l.ring))
	}
}

func TestGossipCodecs(t *testing.T) {
	var h block.Hash
	for i := range h {
		h[i] = byte(i * 7)
	}
	height, got, err := decodeAnnounce(encodeAnnounce(12345, h))
	if err != nil || height != 12345 || got != h {
		t.Fatalf("announce round trip: %d %x %v", height, got, err)
	}
	gh, err := decodeGetBlock(h[:])
	if err != nil || gh != h {
		t.Fatalf("get-block round trip: %x %v", gh, err)
	}
	bad := [][]byte{nil, {1, 2, 3}, make([]byte, 39), make([]byte, 41)}
	for _, p := range bad {
		if _, _, err := decodeAnnounce(p); err == nil {
			t.Errorf("decodeAnnounce(%d bytes) accepted", len(p))
		}
	}
	for _, p := range [][]byte{nil, {1}, make([]byte, 31), make([]byte, 33)} {
		if _, err := decodeGetBlock(p); err == nil {
			t.Errorf("decodeGetBlock(%d bytes) accepted", len(p))
		}
	}
}
