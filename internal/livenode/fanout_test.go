package livenode

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fan-out in O(k) (DESIGN.md §13, §15.4): the relay reads the transport's
// shared sorted peer snapshot, never copies or reorders it, and samples it
// sparsely. These tests hold the sampler to the in-place shuffle it replaced,
// a relay step's allocations to a constant in the peer count, and a burst of
// relaying to the snapshot it read.

// samplePeersInPlace is the sampler as it was before the snapshot became
// shared: filter exclude out into a copy, sort it, then shuffle a prefix of k
// in place (the copy's, so peers is left alone). samplePeersLocked must draw
// exactly what it draws.
func samplePeersInPlace(rng *rand.Rand, peers []string, exclude string, k int) []string {
	var cand []string
	for _, p := range peers {
		if p != exclude {
			cand = append(cand, p)
		}
	}
	if !sort.StringsAreSorted(cand) {
		sort.Strings(cand)
	}
	if k > len(cand) {
		k = len(cand)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return cand[:k]
}

// TestSamplePeersMatchesInPlaceShuffle is the sampler's differential: over
// 10⁵ seeded cases — n ∈ [0, 300] peers, exclude absent (below, between or
// above the peers), present, first or last, k ∈ [0, n+2] — the sparse draw
// returns the peers the in-place shuffle returns, in the same order, leaves
// the RNG where it leaves it, and writes nothing into the snapshot.
func TestSamplePeersMatchesInPlaceShuffle(t *testing.T) {
	universe := make([]string, 1000) // sorted: "p0000" < "p0001" < …
	for i := range universe {
		universe[i] = fmt.Sprintf("p%04d", i)
	}
	gen := rand.New(rand.NewSource(1))
	// One RNG per side for the whole run: each case starts both in the state
	// the previous case left them in, which the check below holds equal.
	wantRNG, gotRNG := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	peers := make([]string, 0, 300)
	for c := 0; c < 100_000; c++ {
		n := gen.Intn(301)
		stride := 1 + gen.Intn(3)
		off := 1 + gen.Intn(len(universe)-1-(n-1)*stride)
		peers = peers[:0]
		for i := 0; i < n; i++ {
			peers = append(peers, universe[off+i*stride])
		}
		var exclude string
		switch mode := gen.Intn(6); {
		case mode == 0:
			exclude = "" // below every peer: the announces that exclude nobody
		case mode == 1:
			exclude = "q" // above every peer
		case mode == 2 && stride > 1 && n > 1:
			exclude = universe[off+1] // between two peers
		case mode == 3 && n > 0:
			exclude = peers[gen.Intn(n)]
		case mode == 4 && n > 0:
			exclude = peers[0]
		case mode == 5 && n > 0:
			exclude = peers[n-1]
		default:
			exclude = universe[off-1]
		}
		k := gen.Intn(n + 3)
		want := samplePeersInPlace(wantRNG, peers, exclude, k)
		got := samplePeersLocked(gotRNG, peers, exclude, k)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (n=%d exclude=%q k=%d): drew %v, the in-place shuffle %v", c, n, exclude, k, got, want)
		}
		if g, w := gotRNG.Int63(), wantRNG.Int63(); g != w {
			t.Fatalf("case %d (n=%d exclude=%q k=%d): RNG left at %d, the in-place shuffle leaves it at %d", c, n, exclude, k, g, w)
		}
		for i, p := range peers {
			if p != universe[off+i*stride] {
				t.Fatalf("case %d (n=%d exclude=%q k=%d): the sampler wrote into the snapshot", c, n, exclude, k)
			}
		}
	}
}

// allocsAndBytesPerRun reports the heap allocations and bytes one call of f
// costs, averaged over runs after a warm-up call: testing.AllocsPerRun, plus
// the bytes, which tell a copy of 256 peers from a copy of 16. MemStats
// counts the whole process, and another goroutine (a parallel test's, the
// runtime's) can only add to it, so each figure is the least of three
// measurement rounds.
func allocsAndBytesPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	allocs, bytes = math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/float64(runs))
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return allocs, bytes
}

// TestRelayFanoutAllocs is the relay's scale gate: one tree push plus one
// fallback announce costs the same allocations, count and bytes, beside 16
// peers as beside 256 — the sends and the sample, never a copy, filter or
// sort of the peer list. The node sits at the root of the push's tree (rot is
// its own rank), so it has gossipFanout children at both sizes.
func TestRelayFanoutAllocs(t *testing.T) {
	cost := func(peers int) (allocs, bytes float64) {
		mn := memnet.New(1, nil)
		mn.SetRecording(false)
		a := newSyncTestNode(t, nil, "a", 0, time.Unix(1700000000, 0), func(cfg *Config) {
			cfg.NewTransport = func(h p2p.Handler) (p2p.Transport, error) { return mn.Listen("a", h) }
		})
		for i := 0; i < peers; i++ {
			addr := fmt.Sprintf("p%03d", i) // all sort after "a": a's rank is 0
			if _, err := mn.Listen(addr, p2p.HandlerFunc(func(string, byte, []byte) {})); err != nil {
				t.Fatal(err)
			}
			if err := a.net.Connect(addr); err != nil {
				t.Fatal(err)
			}
		}
		body, ids := make([]byte, 200), make([]byte, 32)
		for _, p := range a.net.Peers() { // memnet's per-link state exists before the count starts
			a.net.Send(p, p2p.FrameMeta, body)
		}
		for mn.DeliverNext() {
		}
		return allocsAndBytesPerRun(200, func() {
			a.push(p2p.FrameMeta, body, 0, "")
			a.announce(p2p.FrameMetaAnnounce, ids, "p001", gossipFanout)
			for mn.DeliverNext() {
			}
		})
	}
	a16, b16 := cost(16)
	a256, b256 := cost(256)
	t.Logf("push+announce: %.1f allocs, %.0f B at 16 peers; %.1f allocs, %.0f B at 256", a16, b16, a256, b256)
	if a16 != a256 || b16 != b256 {
		t.Fatalf("push+announce allocates %.1f times (%.0f B) at 16 peers and %.1f times (%.0f B) at 256: peer-list work grew with n",
			a16, b16, a256, b256)
	}
}

// TestRelayBurstLeavesSnapshotsUntouched: 64 memnet nodes relay a burst of
// items and the blocks that pack them, every push, announce, probe and locator
// sample reading its endpoint's shared snapshot. Each snapshot taken before the
// burst must still equal the deep copy taken with it, and be what Peers()
// returns afterwards: nothing the relay does may write into it.
func TestRelayBurstLeavesSnapshotsUntouched(t *testing.T) {
	const n, items = 64, 16
	rng := rand.New(rand.NewSource(7))
	idents := make([]*identity.Identity, n)
	accounts := make([]identity.Address, n)
	for i := range idents {
		idents[i] = identity.GenerateSeeded(rng)
		accounts[i] = idents[i].Address()
	}
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	mn := memnet.New(7, clk.Now)
	mn.SetRecording(false)
	nodes := make([]*Node, n)
	eps := make([]*memnet.Endpoint, n)
	regs := make([]*telemetry.Registry, n)
	for i := range nodes {
		regs[i] = telemetry.NewRegistry()
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: 5 * time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			Clock:       clk,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				ep, err := mn.Listen(fmt.Sprintf("node%02d", i), h)
				eps[i] = ep
				return ep, err
			},
			Telemetry:     regs[i],
			RepairWorkers: 1, // the probe tick samples the snapshot too
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	run := func(d time.Duration) { // sim's discrete-event loop: due messages first, then due timers
		horizon := clk.Now().Add(d)
		for {
			msgAt, msgOK := mn.NextDue()
			timerAt, timerOK := clk.NextTimer()
			if msgOK && !msgAt.After(horizon) && (!timerOK || !msgAt.After(timerAt)) {
				clk.Jump(msgAt)
				mn.DeliverNext()
			} else if timerOK && !timerAt.After(horizon) {
				clk.AdvanceTo(timerAt)
			} else {
				break
			}
		}
		clk.AdvanceTo(horizon)
	}
	for i, a := range nodes {
		var higher []string
		for j := i + 1; j < n; j++ {
			higher = append(higher, nodes[j].Addr())
		}
		if err := a.Connect(higher...); err != nil {
			t.Fatal(err)
		}
	}
	run(time.Second)

	snaps, copies := make([][]string, n), make([][]string, n)
	for i, ep := range eps {
		snaps[i] = ep.Peers()
		copies[i] = slices.Clone(snaps[i])
		if len(snaps[i]) != n-1 || !slices.IsSorted(snaps[i]) {
			t.Fatalf("node %d: peers %v before the burst, want the other %d sorted", i, snaps[i], n-1)
		}
	}
	for k := 0; k < items; k++ {
		if _, err := nodes[(k*37)%n].Publish([]byte(fmt.Sprintf("burst item %02d", k)), "Road/Congestion", "burst"); err != nil {
			t.Fatal(err)
		}
	}
	run(30 * time.Second)

	var pushed uint64
	for i, node := range nodes {
		if node.Height() == 0 {
			t.Fatalf("node %d adopted no block in the burst", i)
		}
		pushed += regs[i].Snapshot().Counter("livenode.relay.pushed")
	}
	if pushed < items*(n-1) {
		t.Fatalf("%d bodies pushed, want at least the %d the items alone take", pushed, items*(n-1))
	}
	for i, ep := range eps {
		if !slices.Equal(snaps[i], copies[i]) {
			t.Fatalf("node %d: the snapshot taken before the burst now reads %v, was %v", i, snaps[i], copies[i])
		}
		if got := ep.Peers(); !slices.Equal(got, copies[i]) {
			t.Fatalf("node %d: peers after the burst %v, want the unchanged %v", i, got, copies[i])
		}
	}
}
