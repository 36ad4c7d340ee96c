package chaos

import (
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/p2p/memnet"
	"repro/internal/workload"
)

// measureBlockPropagation mines a 128-node cluster to a fixed height with
// the given gossip fanout (-1 = legacy full-mesh push) and returns each
// node's peak and summed livenode.wire.block_bytes — every FrameBlock,
// FrameBlockAnnounce and FrameGetBlock byte counted at its sender — plus
// the converged height for normalization.
func measureBlockPropagation(t *testing.T, fanout int) (peak, total, height uint64) {
	t.Helper()
	const n, targetHeight = 128, 8
	c := newQuietCluster(t, Options{N: n, Seed: *seedFlag, GossipFanout: fanout})
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
	for i := 0; i < n; i++ {
		v := c.NodeTelemetry(i).Snapshot().Counter("livenode.wire.block_bytes")
		total += v
		if v > peak {
			peak = v
		}
	}
	return peak, total, c.Nodes()[0].Height()
}

// TestGossipBeatsFullMeshFiveFold is the ISSUE's wire-bytes acceptance
// gate (the block-propagation sibling of TestSyncCatchupBeatsLegacyFiveFold):
// at 128 nodes, inv-style gossip must cut the PEAK per-node
// block-propagation egress at least 5x versus the legacy full-mesh push.
// Peak — not total — is the honest metric: every node still receives each
// body exactly once, so cluster-total bytes cannot shrink much; what
// gossip removes is the miner's O(n) body fan-out, replacing it with
// O(fanout) 40-byte announces plus at most fanout served bodies.
func TestGossipBeatsFullMeshFiveFold(t *testing.T) {
	gPeak, gTotal, gHeight := measureBlockPropagation(t, 0)
	lPeak, lTotal, lHeight := measureBlockPropagation(t, -1)
	if gHeight == 0 || lHeight == 0 {
		t.Fatalf("cluster mined nothing: gossip height %d, legacy height %d", gHeight, lHeight)
	}

	// Normalize per adopted block: the two runs consume the fault RNG
	// differently, so their converged heights can differ by a block.
	gRate := float64(gPeak) / float64(gHeight)
	lRate := float64(lPeak) / float64(lHeight)
	t.Logf("peak per-node block-propagation egress per block: gossip %.0f B (height %d), legacy %.0f B (height %d) — %.1fx; totals: gossip %d B, legacy %d B (%.2fx)",
		gRate, gHeight, lRate, lHeight, lRate/gRate, gTotal, lTotal, float64(lTotal)/float64(gTotal))
	if gRate*5 > lRate {
		t.Errorf("gossip peak egress %.0f B/block, legacy %.0f B/block — want >= 5x reduction", gRate, lRate)
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
}

// runGossipConvergenceScenario drives the tentpole's flagship scenario:
// 256 nodes on lossy, laggy links relay blocks purely by announce/fetch
// gossip, suffer a half/half partition, heal, and must converge — with the
// fetch-timeout locator fallback patching whatever the drops eat.
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
	if err := c.Settle(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)

	res := gossipChaosResult{
		digest: c.Net.EventDigest(),
		events: c.Net.EventCount(),
		height: c.Nodes()[0].Height(),
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

// TestChaosGossipConvergence256 is the tentpole's scale scenario: 256
// nodes converge through inv-style gossip under drops, delays and a
// partition, the gossip counters prove the announce/fetch path (not the
// legacy push) carried the blocks, and a second run with the same seed is
// bit-identical.
func TestChaosGossipConvergence256(t *testing.T) {
	first := runGossipConvergenceScenario(t, *seedFlag)

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

// TestCompactRelayWireGate pins what compact bodies (DESIGN.md §13.1) buy
// where blocks are big: 64 nodes under a ×20 flash crowd on 8–12 ms links.
// Every byte of the block plane — announces, fetches and compact bodies,
// fork losers included — must stay within 40% of what shipping each
// canonical block once in full to each of the other 63 nodes would cost,
// and at most 2% of the fetched bodies may end on the locator path.
func TestCompactRelayWireGate(t *testing.T) {
	const n = 64
	seed := *seedFlag
	c := newQuietCluster(t, Options{
		N: n, Seed: seed, T0: 30 * time.Second,
		Faults: memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	requesters := make([]int, 0, 8)
	for i := 5; i < n; i += 8 {
		requesters = append(requesters, i)
	}
	res := driveOpenLoop(t, c, WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:        4 * time.Minute,
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
	}, alloc.DefaultMinReplicas, 20*time.Minute)

	var fullBytes uint64
	for _, b := range c.Nodes()[0].ChainSnapshot()[1:] {
		fullBytes += uint64(b.EncodedSize()) * (n - 1)
	}
	var blockPlane, served, rebuilt, missing, fallbacks uint64
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		blockPlane += snap.Counter("livenode.wire.block_bytes")
		served += snap.Counter("livenode.gossip.fetches_served")
		rebuilt += snap.Counter("livenode.gossip.compact_rebuilt")
		missing += snap.Counter("livenode.gossip.compact_items_missing")
		fallbacks += snap.Counter("livenode.gossip.compact_fallbacks")
	}
	t.Logf("%d items in %d blocks: block plane %d B = %.1f%% of %d B in full bodies; %d bodies served, %d rebuilt, %d items fetched on a miss, %d fall-throughs",
		res.stats.Published, res.height, blockPlane, 100*float64(blockPlane)/float64(fullBytes), fullBytes, served, rebuilt, missing, fallbacks)
	if res.stats.Published < 400 || served == 0 || rebuilt == 0 {
		t.Fatalf("not the flash crowd this gate is about: %d items, %d bodies served, %d rebuilt", res.stats.Published, served, rebuilt)
	}
	if blockPlane*100 > fullBytes*40 {
		t.Errorf("block plane carried %d B, over 40%% of the %d B full bodies would cost", blockPlane, fullBytes)
	}
	if fallbacks*50 > served {
		t.Errorf("%d of %d fetched bodies fell through to the locator path, over 2%%", fallbacks, served)
	}
}
