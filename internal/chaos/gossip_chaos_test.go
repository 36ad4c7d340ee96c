package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/workload"
)

// measureBlockPropagation mines a 128-node cluster to a fixed height and
// returns each node's peak and summed livenode.wire.block_bytes — every
// FrameBlockAnnounce, FrameGetBlock and FrameCompactBlock byte counted at
// its sender — plus the converged height for normalization. The links are
// perfect and every view complete, so the run is also held to the tree
// relay's own terms (checkTreeRelayHealthy).
func measureBlockPropagation(t *testing.T) (peak, total, height uint64) {
	t.Helper()
	const n, targetHeight = 128, 8
	c := newQuietCluster(t, Options{N: n, Seed: *seedFlag})
	reached := func() bool {
		for _, node := range c.Nodes() {
			if node.Height() < targetHeight {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(reached, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	height = c.Nodes()[0].Height()
	if won := sumCounter(c, "livenode.mining.blocks_won"); won == height {
		checkTreeRelayHealthy(t, c, "gossip", won)
	} else {
		// Two miners hit the same second on zero-delay links: each body stops
		// where the other was adopted first, and the next block's locator
		// rounds heal the split — a contested round, not the healthy relay.
		t.Logf("%d blocks won for height %d: rounds were contested at this seed, push counts not asserted", won, height)
	}
	for i := 0; i < n; i++ {
		v := c.NodeTelemetry(i).Snapshot().Counter("livenode.wire.block_bytes")
		total += v
		if v > peak {
			peak = v
		}
	}
	return peak, total, height
}

// TestBlockRelayWireGate is the block-propagation wire gate (the sibling of
// livenode's TestSyncCatchupWireGate): at 128 nodes the busiest node's
// block-propagation egress stays within 1 010 B per adopted block. Peak —
// not total — is the honest metric: every node receives each body exactly
// once, so the cluster total is what it is; what the relay bounds is the
// busiest node's fan-out, at most seven compact bodies (the relay's fan-out
// of six, plus one) and two 38-byte backup announces per block. A full body
// pushed to all 127 peers read 17 455 B in the fixed-width form.
//
// How often the hash puts the busiest node inside the tree is the seed's
// luck: 511 B/block at the default seed, up to 808 over seeds 1 to 60 and
// 1337. Re-pinned for the tree relay (§13) — six announces and the fetches
// they drew read 622 and at most 1 032 (1 261 and 2 389 before the varint
// wire format). The ceiling is the worst seed plus a quarter, so it is
// asserted at every seed.
func TestBlockRelayWireGate(t *testing.T) {
	t.Parallel()
	peak, total, height := measureBlockPropagation(t)
	if height == 0 {
		t.Fatal("cluster mined nothing")
	}
	rate := float64(peak) / float64(height)
	t.Logf("peak per-node block-propagation egress: %.0f B/block (height %d); cluster total %d B", rate, height, total)
	if rate > 1010 {
		t.Errorf("peak block-propagation egress %.0f B/block, want <= 1010", rate)
	}
}

// gossipChaosResult fingerprints one 256-node gossip run for the
// double-run determinism comparison.
type gossipChaosResult struct {
	digest        uint64
	events        uint64
	height        uint64
	relays        uint64
	fetchesServed uint64
	dupSuppressed uint64
	healed        time.Duration // virtual time from the heal to one chain everywhere
}

// runGossipConvergenceScenario drives the block relay's flagship scenario:
// 256 nodes on lossy, laggy links relay blocks by tree push with the
// announce/fetch backup behind it, suffer a half/half partition, heal, and
// must converge — with the locator fallback patching whatever the drops eat.
func runGossipConvergenceScenario(t *testing.T, seed int64) gossipChaosResult {
	t.Helper()
	const n = 256
	c := newQuietCluster(t, Options{
		N:      n,
		Seed:   seed,
		Faults: memnet.Params{Drop: 0.05, DelayMax: 50 * time.Millisecond},
	})
	c.Run(45 * time.Second)

	left, right := make([]int, 0, n/2), make([]int, 0, n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	c.Partition(left, right)
	c.Run(30 * time.Second)
	c.Heal()
	c.Net.SetDefaults(memnet.Params{})
	healedAt := c.Clock.Now()
	if err := c.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)

	res := gossipChaosResult{
		digest: c.Net.EventDigest(),
		events: c.Net.EventCount(),
		height: c.Nodes()[0].Height(),
		healed: c.Clock.Now().Sub(healedAt),
	}
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		res.relays += snap.Counter("livenode.gossip.relays")
		res.fetchesServed += snap.Counter("livenode.gossip.fetches_served")
		res.dupSuppressed += snap.Counter("livenode.gossip.dup_suppressed")
	}
	c.Close()
	return res
}

// TestChaosGossipConvergence256 is the block relay's scale scenario: 256
// nodes converge under drops, delays and a partition, the gossip counters
// prove that where a push was lost the announce/fetch backup carried the
// block, and a second run with the same seed is bit-identical. The time from
// the heal to one chain everywhere is logged: EXPERIMENTS.md, "Tree relay",
// compares it with the announce-first relay's.
func TestChaosGossipConvergence256(t *testing.T) {
	t.Parallel()
	first := runGossipConvergenceScenario(t, *seedFlag)
	t.Logf("height %d, %d events; converged %v after the heal", first.height, first.events, first.healed)

	if first.height < 4 {
		t.Fatalf("256-node gossip cluster barely mined: height %d", first.height)
	}
	if first.relays == 0 {
		t.Fatal("gossip.relays = 0 — blocks did not travel by announce relay")
	}
	if first.fetchesServed == 0 {
		t.Fatal("gossip.fetches_served = 0 — no peer fetched an announced body")
	}
	if first.dupSuppressed == 0 {
		t.Fatal("gossip.dup_suppressed = 0 — epidemic relay never crossed paths, implausible at 256 nodes")
	}

	second := runGossipConvergenceScenario(t, *seedFlag)
	if first != second {
		t.Fatalf("same seed produced different runs:\n run1: %+v\n run2: %+v", first, second)
	}
}

// runFlashCrowd64 is the scenario both wire gates below measure: 64 nodes
// on 8–12 ms links, T0 30 s, four minutes at 60 items/min with a ×20 flash
// crowd every two minutes, two requesters per item out of a pool of eight.
func runFlashCrowd64(t *testing.T, horizon time.Duration, payloadBytes int) (*Cluster, openLoopResult) {
	const n = 64
	seed := *seedFlag
	c := newQuietCluster(t, Options{
		N: n, Seed: seed, T0: 30 * time.Second,
		Faults: memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	c.Net.SetRecording(true) // TestDirectedFetchWireGate counts requests on the wire (≈ 0.3 M events)
	requesters := make([]int, 0, 8)
	for i := 5; i < n; i += 8 {
		requesters = append(requesters, i)
	}
	res := driveOpenLoop(t, c, WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:        horizon,
			RatePerMin:      60,
			BurstEvery:      2 * time.Minute,
			BurstOffset:     30 * time.Second,
			BurstDuration:   10 * time.Second,
			BurstFactor:     20,
			NumNodes:        n,
			Requesters:      requesters,
			RequestsPerItem: 2,
			TypeZipfS:       1.1,
			Users:           1_000_000,
			UserZipfS:       1.2,
			SessionEpoch:    45 * time.Second,
			Seed:            seed*10_000 + 4,
		},
		RequestDelay: 15 * time.Second,
		PayloadBytes: payloadBytes,
	}, alloc.DefaultMinReplicas, 20*time.Minute)
	return c, res
}

// TestCompactRelayWireGate pins what compact bodies (DESIGN.md §13.1) buy
// where blocks are big: 64 nodes under a ×20 flash crowd on 8–12 ms links.
// Every byte of the block plane — pushed compact bodies, backup announces,
// fetches, fork losers included — must stay within 11% of what shipping each
// canonical block once in full to each of the other 63 nodes would cost, and
// at most 2% of the compact bodies may end on the locator path. Tightened for
// short-ID references (§13.1): 8.5% at the default seed, 7.9–8.6% over seeds
// 1, 2, 3, 7, 1337, plus a quarter — a reference is 8 bytes of short ID where
// it was a 32-byte data ID, and ID bytes were 65% of a compact body. With full
// IDs it read 22.0%, 21.5–22.1% (gate 27.5%); before the tree relay (§13),
// with six announces ahead of every fetch, 23.8%, 22.7–23.9% (24.4% before
// the varint wire format shrank both sides alike: block plane 2.54 → 1.62 MB,
// full bodies 10.4 → 6.8 MB). Since items took a flags byte (§17) it reads
// 9.6%, 8.9–9.7% over the same seeds, under the same 11%: the block plane
// names items by short ID and did not move (576 139 B at the default seed),
// while the full bodies it is measured against lost 19–21 B per item.
func TestCompactRelayWireGate(t *testing.T) {
	t.Parallel()
	const n = 64
	c, res := runFlashCrowd64(t, 4*time.Minute, 0)

	var fullBytes uint64
	for _, b := range c.Nodes()[0].ChainSnapshot()[1:] {
		fullBytes += uint64(b.EncodedSize()) * (n - 1)
	}
	blockPlane := sumCounter(c, "livenode.wire.block_bytes")
	relayed, served := sumCounter(c, "livenode.gossip.relays"), sumCounter(c, "livenode.gossip.fetches_served")
	rebuilt, missing := sumCounter(c, "livenode.gossip.compact_rebuilt"), sumCounter(c, "livenode.gossip.compact_items_missing")
	fallbacks := sumCounter(c, "livenode.gossip.compact_fallbacks")
	t.Logf("%d items in %d blocks: block plane %d B = %.1f%% of %d B in full bodies; %d bodies relayed, %d served to a fetch, %d rebuilt, %d items fetched on a miss, %d fall-throughs",
		res.stats.Published, res.height, blockPlane, 100*float64(blockPlane)/float64(fullBytes), fullBytes, relayed, served, rebuilt, missing, fallbacks)
	if res.stats.Published < 400 || rebuilt == 0 {
		t.Fatalf("not the flash crowd this gate is about: %d items, %d bodies rebuilt", res.stats.Published, rebuilt)
	}
	if blockPlane*100 > fullBytes*11 {
		t.Errorf("block plane carried %d B, over 11%% of the %d B full bodies would cost", blockPlane, fullBytes)
	}
	if fallbacks*50 > rebuilt {
		t.Errorf("%d compact bodies fell through to the locator path against %d rebuilt, over 2%%", fallbacks, rebuilt)
	}
}

// TestDirectedFetchWireGate pins what asking one holder (DESIGN.md §11.1)
// buys on the same flash crowd, run for eight minutes with 1 KiB payloads
// (the shape of the ledger's sim-flash): the whole data plane — requests,
// answers, nacks, the hellos booked to it — must stay within 1.05× of one
// request and one answer per completed fetch, no data request may go
// anywhere but to a named candidate, and every fetch is served.
//
// Counted from the wire: every FrameDataRequest send in memnet's event log
// must be one of the node's directed asks, so their number may not exceed
// Σ livenode.fetch.directed (a broadcast would send one per peer). A fetch
// walk is one first ask plus next_candidate moves; a walk that completes
// nothing was never served. It measures 1.00× and 0 unserved at seeds 1, 2
// and 3, with 5 014, 4 725 and 4 814 requests on the wire, each equal to the
// directed asks. With the broadcast fallback the gate allowed 1 % of the
// fetches to broadcast (it measured 0 at the same seeds). The data-plane
// ratio is pinned at the default seed, like the golden digest of
// TestChaosOpenLoopWorkload; at any seed no request may go undirected and no
// fetch unserved.
func TestDirectedFetchWireGate(t *testing.T) {
	t.Parallel()
	const n, payload = 64, 1024
	c, res := runFlashCrowd64(t, 8*time.Minute, payload)
	c.Run(2*time.Minute + time.Second) // the last items are placed, and their storers fetch them

	var dataPlane, completed, directed, moved uint64
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		dataPlane += snap.Counter("livenode.wire.data_bytes")
		completed += snap.Histogram("livenode.data.fetch_ns").Count
		directed += snap.Counter("livenode.fetch.directed")
		moved += snap.Counter("livenode.fetch.next_candidate")
	}
	requests := countSends(c, p2p.FrameDataRequest)
	// Request: ID ‖ mark byte; answer: ID ‖ content; 5 bytes of frame header each.
	ideal := completed * ((32 + 1 + 5) + (32 + payload + 5))
	t.Logf("%d items, %d consumer requests, %d fetches completed: data plane %d B = %.2f× of %d B; %d requests on the wire, %d directed sends, %d moved to the next candidate",
		res.stats.Published, res.stats.Requests, completed, dataPlane, float64(dataPlane)/float64(ideal), ideal, requests, directed, moved)
	if res.stats.Published < 800 || completed < uint64(res.stats.Requests) {
		t.Fatalf("not the flash crowd this gate is about: %d items, %d requests, %d fetches completed", res.stats.Published, res.stats.Requests, completed)
	}
	if requests > directed {
		t.Errorf("%d data requests on the wire against %d directed asks: some went to no named candidate", requests, directed)
	}
	if walks := directed - moved; walks > completed {
		t.Errorf("%d fetches were never served (%d walks, %d completed)", walks-completed, walks, completed)
	}
	if *seedFlag != 1 {
		return
	}
	if dataPlane*100 > ideal*105 {
		t.Errorf("data plane carried %d B, over 1.05× the %d B of one request and one answer per fetch", dataPlane, ideal)
	}
}

// countSends counts the frames of type ft sent over the cluster's network,
// from its event log.
func countSends(c *Cluster, ft byte) (v uint64) {
	for _, e := range c.Net.Events() {
		if e.Kind == memnet.EvSend && e.Frame == ft {
			v++
		}
	}
	return v
}

// TestPlacementAsksUnheardProducer pins that a storer's placement fetch needs
// nothing but the link's hello to find the producer (DESIGN.md §11.1): node 0
// publishes one item while every link out of it is cut except the one to node
// 1, so the item and the blocks that place it reach everybody else through
// node 1, and the frames node 0 sent them while connecting are dropped too.
// A storer asks the producer first: the moment one has asked, the link from
// the producer to it opens. Each storer that never received a frame from the
// producer must then hold the item after exactly one directed ask, with no
// broadcast anywhere.
func TestPlacementAsksUnheardProducer(t *testing.T) {
	const n, producer, relay = 8, 0, 1
	c := newCluster(t, Options{N: n})
	cut := map[int]bool{}
	for i := 2; i < n; i++ {
		c.Net.BlockLink(Addr(producer), Addr(i))
		cut[i] = true
	}
	it, err := c.Node(producer).Publish([]byte("stored by nodes that never heard from its producer"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	counter := func(i int, name string) uint64 { return c.NodeTelemetry(i).Snapshot().Counter(name) }
	storers := func() []int {
		for _, b := range c.Node(relay).ChainSnapshot() {
			for _, x := range b.Items {
				if x.ID == it.ID {
					return x.StoringNodes
				}
			}
		}
		return nil
	}
	unheard := map[int]bool{} // storers that asked while their link from the producer was still cut
	stored := func() bool {
		s := storers()
		for _, i := range s {
			if !c.Node(i).HasData(it.ID) {
				return false
			}
		}
		return s != nil
	}
	horizon := c.Clock.Now().Add(5 * time.Minute)
	for !stored() && c.step(horizon) {
		for i := range cut {
			if cut[i] && counter(i, "livenode.fetch.directed") > 0 {
				c.Net.UnblockLink(Addr(producer), Addr(i))
				cut[i], unheard[i] = false, true
			}
		}
	}
	if !stored() {
		t.Fatalf("item placed on %v is not held by all of them after 5 virtual minutes", storers())
	}
	for _, e := range c.Net.Events() {
		if i, ok := indexOf(e.To); e.Kind == memnet.EvDeliver && e.From == Addr(producer) && ok && unheard[i] {
			// A delivery from the producer is its answer, after the ask.
			if e.Frame != p2p.FrameData {
				t.Fatalf("storer %d received frame %d from the producer: %v", i, e.Frame, e)
			}
		}
	}
	asked := 0
	for _, i := range storers() {
		if !unheard[i] {
			continue
		}
		asked++
		if d, nc := counter(i, "livenode.fetch.directed"), counter(i, "livenode.fetch.next_candidate"); d != 1 || nc != 0 {
			t.Errorf("storer %d: %d directed asks, %d moved on; want one, to the producer", i, d, nc)
		}
	}
	if asked == 0 {
		t.Fatalf("no storer of %v fetched from behind the cut", storers())
	}
	if d, r := sumCounter(c, "livenode.fetch.directed"), countSends(c, p2p.FrameDataRequest); r > d {
		t.Errorf("%d data requests on the wire against %d directed asks", r, d)
	}
	t.Logf("item placed on %v; %d storers fetched it from a producer they never heard from", storers(), asked)
}

// indexOf is the roster index behind a chaos address.
func indexOf(addr string) (int, bool) {
	var i int
	_, err := fmt.Sscanf(addr, "node%02d", &i)
	return i, err == nil
}
