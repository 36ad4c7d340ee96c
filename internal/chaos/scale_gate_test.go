package chaos

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p/memnet"
	"repro/internal/workload"
)

// This file is the §15 scale gate: CI-enforced evidence that neither the
// metadata plane nor the liveness plane nor joining floods. The first two
// get an absolute peak-egress ceiling measured at 256 nodes and set-up a
// ceiling on the cluster's bytes, a 64-node run proves the
// metadata relay loses nothing, and TestChaosScale1000 pins the whole
// stack — open-loop workload, churn, sampled probes — at 1000
// deterministic nodes.
//
// The scale and gate tests, here and in the gossip and workload files, run
// in parallel: each builds its own cluster, network and virtual clock, and
// they share nothing but the read-only seed flag.

// measureMetaDistribution publishes a burst of items from ONE producer
// on a 256-node mining-parked cluster and returns each node's peak and
// summed livenode.wire.meta_bytes. The concentrated producer is the
// honest shape for this gate: it is the node whose egress a push to every
// peer would spike, while uniform publishing would average the spike away
// across the roster.
func measureMetaDistribution(t *testing.T) (peak, total, relays uint64) {
	t.Helper()
	const n, items = 256, 8
	c := newQuietCluster(t, Options{
		N:    n,
		Seed: *seedFlag,
		T0:   time.Hour, // park mining: only metadata frames flow
	})
	for k := 0; k < items; k++ {
		if _, err := c.Node(0).Publish([]byte(fmt.Sprintf("gate item %02d", k)), "Road/Congestion", "gate"); err != nil {
			t.Fatal(err)
		}
		c.Run(5 * time.Second) // drain the epidemic before the next burst
	}
	c.Run(30 * time.Second) // let any fetch timers fire

	// Delivery: on perfect links the tree reaches everyone, with mining
	// parked on purpose so nothing else can.
	covered := 0
	for i := 0; i < n; i++ {
		if len(c.Node(i).PoolIDs()) == items {
			covered++
		}
	}
	if covered != n {
		t.Fatalf("only %d/%d nodes hold all %d items", covered, n, items)
	}
	checkTreeRelayHealthy(t, c, "metagossip", items)
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		v := snap.Counter("livenode.wire.meta_bytes")
		total += v
		if v > peak {
			peak = v
		}
		relays += snap.Counter("livenode.metagossip.relays")
	}
	return peak, total, relays
}

// TestMetaRelayWireGate is the metadata half of the §15 acceptance gate: at
// 256 nodes the busiest node's metadata egress for 8 items from one
// producer stays within 3 620 B — the 2 898 B this run measures at every
// seed plus a quarter. Tightened from 3 900 B (3 122 B measured) when the
// backup announce of every pushed item went (§15.1: the next block is the
// metadata plane's backup), 28 B of short IDs per item-node. Tightened from
// 4 350 B (3 482 B measured) when items
// took a flags byte (§17): a body leaves out its zero location and its empty
// fields, and its key and signature lose their length bytes, 21 B of 175.
// Re-pinned for the tree relay (§15.1): a node uploads
// an item to at most seven tree neighbours (the relay's fan-out of six, plus one) and the interior role
// rotates with the ID, where the producer used to serve the fetches its six
// announces drew, item after item (9 342 B; 12 912 B before the varint wire
// format, 14 064 B before announces spoke short IDs). Peak, not total:
// every node still receives each item once, so the cluster total is what it
// is; what the relay bounds is the busiest node's fan-out. A full item pushed
// to all 255 peers reads 514 080 B in the fixed-width form. The run is on
// perfect links, so it is also held to the tree's own terms: 255 bodies per
// item, none twice, none fetched, no announce sent.
func TestMetaRelayWireGate(t *testing.T) {
	t.Parallel()
	peak, total, relays := measureMetaDistribution(t)
	if relays == 0 {
		t.Fatal("metagossip.relays = 0 — items did not travel by the relay")
	}
	t.Logf("peak per-node metadata egress %d B; cluster total %d B", peak, total)
	if peak > 3620 {
		t.Errorf("peak metadata egress %d B, want <= 3620", peak)
	}
}

// measureConnectStorm builds the benchmark's sim-scale cluster (256 nodes,
// 30 s blocks, 8–12 ms links), wires the full mesh and lets the probes and
// their answers drain, then runs it until every node holds block 1. It
// returns the cluster's consensus bytes at both points and how many blocks
// were won on the way.
func measureConnectStorm(t *testing.T) (join, warm, blocks uint64) {
	t.Helper()
	const n = 256
	c := newQuietCluster(t, Options{
		N:               n,
		Seed:            *seedFlag,
		T0:              30 * time.Second,
		StorageCapacity: 2000,
		SnapshotEvery:   4,
		Faults:          memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	if err := c.RunUntil(func() bool { return true }, time.Second); err != nil { // to network idle
		t.Fatal(err)
	}
	join = sumCounter(c, "livenode.wire.consensus_bytes")
	warmUp(t, c)
	return join, sumCounter(c, "livenode.wire.consensus_bytes"), sumCounter(c, "livenode.mining.blocks_won")
}

// TestConnectStormWireGate is the join half of the §15 acceptance gate, at
// 256 nodes. Connecting the full mesh costs the cluster at most 74 000 B of
// consensus bytes — the 59 085 B of O(n·fanout) locator probes this run
// measures plus a quarter, the same at every seed. Re-pinned since a peer
// with nothing above the fork point stays silent: at height 0 nobody has, so
// the 1 515 empty FrameSyncHeaders of 40 B that answered the probes are gone
// (119 685 B with them; 160 590 B in the fixed-width form). Connecting and
// warming to height 1 costs at most 370 000 B per block won on the way: block
// relay is O(n) per block (0.24 MB here, block 1's 256-entry node lists
// pushed once to each node; 0.30 MB when six announces a node preceded the
// fetch, 1.17 MB when the lists took 8 B an entry) and how many blocks the
// PoS lottery hands out before every node holds one is the seed's business
// (one at the default seed, 294 195 B in all; two at seed 3, where block 1 is
// contested, 300 649 B; the most per block over seeds 1–20 and 1337 is
// 294 450 B — 422 598, 874 064 over three blocks, and 422 853 B before the
// tree relay).
// When every Connect broadcast its locator and slept 50 ms of
// virtual time first, joining read 6.9–8.1 MB and the default seed's whole
// set-up 8.77 MB over two blocks: 255 × 255 probes of 49 B, and the header
// offers and batches that answered them.
func TestConnectStormWireGate(t *testing.T) {
	t.Parallel()
	join, warm, blocks := measureConnectStorm(t)
	t.Logf("connect: %d consensus bytes; connect + warm to height 1: %d over %d blocks", join, warm, blocks)
	if join > 74_000 {
		t.Errorf("connecting cost %d consensus bytes, want <= 74000", join)
	}
	if warm > 370_000*blocks {
		t.Errorf("connect + warm cost %d consensus bytes over %d blocks, want <= 370000 per block", warm, blocks)
	}
}

// measureHeartbeat runs a 256-node mining-parked cluster's repair plane
// for a fixed span of ticks and returns each node's peak and summed
// livenode.wire.heartbeat_bytes (probe + ack).
func measureHeartbeat(t *testing.T) (peak, total, probes uint64) {
	t.Helper()
	const n = 256
	c := newQuietCluster(t, Options{
		N:                n,
		Seed:             *seedFlag,
		T0:               time.Hour, // park mining: only liveness frames flow
		RepairWorkers:    1,
		RepairProbeEvery: 5 * time.Second,
	})
	c.Run(60 * time.Second) // 12 probe ticks
	for i := 0; i < n; i++ {
		snap := c.NodeTelemetry(i).Snapshot()
		v := snap.Counter("livenode.wire.heartbeat_bytes")
		total += v
		if v > peak {
			peak = v
		}
		probes += snap.Counter("livenode.probe.sent")
	}
	return peak, total, probes
}

// TestSampledProbesWireGate is the liveness half of the §15 acceptance
// gate: at 256 nodes, 12 ticks of SWIM-style sampled probing cost the
// busiest node at most 4 500 B of heartbeat egress — the 3 608 B this run
// measured with 100 ms age units plus a quarter (3 086 B at 500 ms, where
// every age under 64 s is one byte); the plane is O(n·fanout) per tick.
// Acks whose digest entries were fixed 4-byte (index, age) pairs read
// 5 636 B, and a 4-byte announce to all 255 peers every tick reads 36 720 B.
func TestSampledProbesWireGate(t *testing.T) {
	t.Parallel()
	peak, total, probes := measureHeartbeat(t)
	if probes == 0 {
		t.Fatal("probe.sent = 0 — the repair plane never probed")
	}
	t.Logf("peak per-node heartbeat egress %d B; cluster total %d B", peak, total)
	if peak > 4500 {
		t.Errorf("peak heartbeat egress %d B, want <= 4500", peak)
	}
}

// itemSetDigest folds an item set into one order-independent fingerprint.
func itemSetDigest(ids []meta.DataID) uint64 {
	sort.Slice(ids, func(i, j int) bool {
		for b := range ids[i] {
			if ids[i][b] != ids[j][b] {
				return ids[i][b] < ids[j][b]
			}
		}
		return false
	})
	h := fnv.New64a()
	for _, id := range ids {
		h.Write(id[:])
	}
	return h.Sum64()
}

// drainItemSets runs the cluster until it has converged with every pool
// drained, then checks the §15 no-loss property: every live node's complete
// item set — everything on its chain plus everything still pooled — is exactly
// the published one.
func drainItemSets(t *testing.T, c *Cluster, published []meta.DataID) {
	t.Helper()
	drained := func() bool {
		if !c.Converged() {
			return false
		}
		for _, node := range c.Nodes() {
			if len(node.PoolIDs()) != 0 {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(drained, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	want := itemSetDigest(append([]meta.DataID(nil), published...))
	for i, node := range c.nodes {
		if node == nil {
			continue
		}
		var ids []meta.DataID
		for _, blk := range node.ChainSnapshot() {
			for _, it := range blk.Items {
				ids = append(ids, it.ID)
			}
		}
		ids = append(ids, node.PoolIDs()...)
		if len(ids) != len(published) {
			t.Fatalf("node %d holds %d items, want %d", i, len(ids), len(published))
		}
		if got := itemSetDigest(ids); got != want {
			t.Fatalf("node %d item-set digest %016x differs from the published set's %016x", i, got, want)
		}
	}
}

// TestMetaRelayPoolConvergence is the §15 no-loss property: a fixed
// staggered publish schedule from scattered producers on a mining 64-node
// cluster ends with every item packed, every pool drained, and every
// node's complete item set exactly the 24 items published — on perfect links,
// where the tree alone carries them, and with one frame in twenty lost, where
// the blocks' miss path, the fetches it draws and the fallback announces of
// what was fetched fill in.
// The relay changes bytes on the wire, never what converges.
func TestMetaRelayPoolConvergence(t *testing.T) {
	for _, tc := range []struct {
		name string
		drop float64
	}{{"lossless", 0}, {"5% drop", 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			const n, items = 64, 24
			c := newQuietCluster(t, Options{N: n, Seed: *seedFlag, Faults: memnet.Params{Drop: tc.drop}})
			var published []meta.DataID
			for k := 0; k < items; k++ {
				producer := (k * 7) % n
				it, err := c.Node(producer).Publish([]byte(fmt.Sprintf("conv item %03d", k)), "Road/Congestion", fmt.Sprintf("loc%d", k%5))
				if err != nil {
					t.Fatal(err)
				}
				published = append(published, it.ID)
				c.Run(2 * time.Second)
			}
			drainItemSets(t, c, published)
			if sumCounter(c, "livenode.metagossip.relays") == 0 {
				t.Fatal("metagossip.relays = 0 — items did not travel by the relay")
			}
			if fetched := sumCounter(c, "livenode.metagossip.fetches_sent"); (fetched != 0) != (tc.drop != 0) {
				t.Errorf("%d items fetched at drop rate %v: the backup path runs exactly when pushes are lost", fetched, tc.drop)
			}
		})
	}
}

// TestChaosScale1000 is the tentpole's summit: 1000 deterministic nodes
// under an open-loop workload with ~5% concurrent churn, block gossip,
// metadata relay and sampled liveness probes all on, converging with
// every invariant intact — and bit-identically: at seed 1 on amd64 the run
// is held to its pinned event digest, event count, height and wire bytes
// (as TestChaosOpenLoopWorkload is), at any other seed it is run twice and
// compared with itself. Nothing in the stack may touch wall-clock
// randomness for either to hold.
//
// Detector windows follow the §15 coverage math: with the fanout of 8 that
// livenode derives for 1000 nodes, sampled evidence about one node refreshes
// roughly every roster/(fanout·(digest+1)) ≈ 7 ticks, so the 36-tick dead window has
// ~5× slack — alive nodes never flap dead (a false-dead at this scale
// snowballs into a repair-repacking livelock), while churned nodes are
// only down ~4 ticks and never even reach suspect.
func TestChaosScale1000(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("1000-node scenario skipped in -short")
	}
	seed := *seedFlag
	const n = 1000
	opts := Options{
		N:                  n,
		Seed:               seed,
		StorageCapacity:    64,
		RepairWorkers:      1,
		RepairProbeEvery:   10 * time.Second,
		RepairSuspectAfter: 180 * time.Second,
		RepairHysteresis:   180 * time.Second,
	}
	requesters := make([]int, 0, 8)
	for i := 13; i < n; i += 125 {
		requesters = append(requesters, i)
	}
	wopts := WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:        45 * time.Second,
			RatePerMin:      40,
			NumNodes:        n,
			Requesters:      requesters,
			RequestsPerItem: 1,
			TypeZipfS:       1.1,
			Users:           1_000_000,
			UserZipfS:       1.2,
			SessionEpoch:    45 * time.Second,
			Seed:            seed*10_000 + 5,
		},
		RequestDelay: 15 * time.Second,
	}
	// ~67 outages/min × 45s mean downtime ≈ 50 nodes down at a time ≈ 5%.
	churn, err := workload.GenerateChurn(workload.ChurnConfig{
		Horizon:      45 * time.Second,
		EventsPerMin: 67,
		MeanDown:     45 * time.Second,
		NumNodes:     n,
		Protect:      []int{0},
		Seed:         seed*10_000 + 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	wopts.Churn = churn

	run := func() openLoopResult {
		c := newQuietCluster(t, opts)
		// Churned nodes are in-memory: they restart empty and catch up by
		// sync, so the replication floor is out of scope here (the durable
		// flash-crowd scenario owns it) — floor 0 skips that check.
		return driveOpenLoop(t, c, wopts, 0, 20*time.Minute)
	}
	r1 := run()
	if r1.stats.Published < 20 {
		t.Fatalf("1000-node run published only %d items: %+v", r1.stats.Published, r1.stats)
	}
	if r1.stats.ChurnDowns < 10 {
		t.Fatalf("churn barely happened: %+v", r1.stats)
	}
	t.Logf("1000 nodes: %+v; height=%d events=%d wire=%dB converge=%v gini=%.3f",
		r1.stats, r1.height, r1.events, r1.wireB, r1.converge, r1.gini)

	// The golden stands in for the second run (15 s of wall time). Pinned at
	// the commit before the figure stack and the harness came to share one
	// virtual clock, and unchanged by it: the values move only when the
	// cluster's trajectory does.
	//
	// Re-pinned once for short-ID compact references (DESIGN.md §13.1): a
	// compact block names each item by its 8-byte short ID, 24 B less per
	// item per hop, so the wire falls 19 941 826 → 19 329 898 B and the
	// digest, which folds frame sizes in, moves. The trajectory did not:
	// still 1 116 431 events, height 13.
	//
	// Re-pinned once: bindings from the hello (DESIGN.md §11.1). A fetch asks
	// a holder it knows from the link's hello instead of broadcasting to learn
	// addresses, so 124 756 fewer events (991 675). The wire rises 19 329 898
	// → 23 580 354 B all the same: every node books each of its 999 peers'
	// hellos as a 6- or 7-byte frame of the data plane (6 865 128 B over the
	// cluster), and twenty minutes of 1 000 nodes are too few fetches to pay
	// that back.
	// The height is still 13.
	//
	// Re-pinned once: liveness acks in varints (DESIGN.md §15.2). A digest
	// entry is uvarint(gap) ‖ uvarint(age) instead of two fixed uint16s and
	// the count is gone, so the wire falls 23 580 354 → 22 606 411 B and the
	// digest moves with the frame sizes. The responder picks the same
	// entries and the merge rule is unchanged: still 991 675 events,
	// height 13.
	//
	// Re-pinned once: metadata items open with a flags byte (DESIGN.md §17)
	// and leave their empty fields out, 21 B less per item body. The wire
	// falls 22 606 411 → 22 060 649 B and the digest moves with the frame
	// sizes; still 991 675 events, height 13.
	//
	// Re-pinned once: the metadata plane's backup announce is gone (DESIGN.md
	// §15.1: the next block is its backup). Every frame not sent shifts
	// memnet's one delay RNG, so later frames draw other delays. The wire
	// falls 22 060 649 → 21 395 617 B and the events 991 675 → 901 437; the
	// height is still 13.
	//
	// Re-pinned once: liveness-ack ages in 500 ms units instead of 100 ms
	// (DESIGN.md §15.2), so every age under 64 s is one varint byte. Acks
	// shrink, the wire falls 21 395 617 → 20 803 227 B and the digest moves
	// with the frame sizes. The responder picks the same entries, a merge
	// dates evidence at most 500 ms earlier and no verdict moves: still
	// 901 437 events, height 13.
	if seed == 1 && runtime.GOARCH == "amd64" {
		const digest, events, height, wireB = 0x9306a7ad54e01c2f, 901437, 13, 20803227
		if r1.digest != digest || r1.events != events || r1.height != height || r1.wireB != wireB {
			t.Fatalf("1000-node behaviour changed at seed 1: digest %016x events %d height %d wire %d B, golden %016x %d %d %d",
				r1.digest, r1.events, r1.height, r1.wireB, uint64(digest), events, height, wireB)
		}
		return
	}
	r2 := run()
	if r1 != r2 {
		t.Fatalf("double run diverged:\n run1: %+v\n run2: %+v", r1, r2)
	}
}
