package chaos

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// openLoopResult captures everything one open-loop run produced that a
// determinism comparison or a scaling measurement cares about. Two runs
// with identical options must produce identical results, field for field.
type openLoopResult struct {
	digest   uint64        // FNV fold of every network event (order, time, bytes)
	events   uint64        // total network events counted
	stats    WorkloadStats // what the driver published/requested/churned
	height   uint64        // converged chain height
	converge time.Duration // virtual time from last arrival to quiescent convergence
	wireB    uint64        // consensus + data + repair wire bytes, all nodes
	gini     float64       // inequality of blocks won across the roster
}

// newQuietCluster builds a cluster for a large-scale run: event recording
// is off (retaining a six-figure event log for 128-256 nodes costs real
// memory; the rolling digest is the determinism evidence instead) and
// only compact diagnostics are dumped on failure.
func newQuietCluster(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	if opts.Seed == 0 {
		opts.Seed = *seedFlag
	}
	c, err := NewCluster(opts)
	if err != nil {
		tb.Fatal(err)
	}
	c.Net.SetRecording(false)
	tb.Cleanup(func() {
		defer c.Close()
		if tb.Failed() {
			tb.Logf("net digest=%016x events=%d\nnet telemetry: %+v",
				c.Net.EventDigest(), c.Net.EventCount(), c.NetTelemetry().Snapshot().Counters)
		}
	})
	if err := c.ConnectAll(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// warmUp runs the cluster until every live node holds block 1.
func warmUp(tb testing.TB, c *Cluster) {
	tb.Helper()
	warm := func() bool {
		for _, n := range c.Nodes() {
			if n.Height() < 1 {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(warm, 10*time.Minute); err != nil {
		tb.Fatal(err)
	}
}

// driveOpenLoop warms the cluster to its first block, runs an open-loop
// workload to exhaustion, waits for convergence plus the replication
// floor, checks every invariant, and returns the run's fingerprint.
func driveOpenLoop(tb testing.TB, c *Cluster, wopts WorkloadOptions, floor int, settleMax time.Duration) openLoopResult {
	tb.Helper()
	warmUp(tb, c)

	d, err := c.StartWorkload(wopts)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.RunUntil(d.Done, wopts.Stream.Duration+10*time.Minute); err != nil {
		tb.Fatal(err)
	}
	// Let the trailing requester fetches (scheduled RequestDelay after the
	// last arrivals) fire before measuring convergence.
	if wopts.RequestDelay > 0 {
		c.Run(wopts.RequestDelay)
	}
	tEnd := c.Clock.Now()

	healed := func() bool {
		if !c.Converged() {
			return false
		}
		return floor <= 0 || c.CheckReplication(floor) == nil
	}
	if err := c.RunUntil(healed, settleMax); err != nil {
		tb.Fatalf("%v; replication: %v", err, c.CheckReplication(floor))
	}
	res := openLoopResult{
		digest:   c.Net.EventDigest(),
		events:   c.Net.EventCount(),
		stats:    d.Stats(),
		converge: c.Clock.Now().Sub(tEnd),
	}
	if err := c.CheckInvariants(); err != nil {
		tb.Fatal(err)
	}
	res.height = c.Nodes()[0].Height()
	won := make([]int, c.opts.N)
	for i := range won {
		snap := c.NodeTelemetry(i).Snapshot()
		won[i] = int(snap.Counter("livenode.mining.blocks_won"))
		res.wireB += snap.Counter("livenode.wire.consensus_bytes") +
			snap.Counter("livenode.wire.data_bytes") +
			snap.Counter("livenode.wire.repair_bytes")
	}
	res.gini = metrics.GiniInts(won)
	return res
}

// TestChaosOpenLoopWorkload is the always-on gate for the workload
// driver: 32 nodes consume a diurnal open-loop stream with Zipf-skewed
// types, 100k multiplexed users, and per-item requester fetches, end to
// end under the virtual clock, landing converged with every data
// invariant intact.
func TestChaosOpenLoopWorkload(t *testing.T) {
	seed := *seedFlag
	c := newCluster(t, Options{N: 32, Seed: seed, StorageCapacity: 48})
	wopts := WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:         2 * time.Minute,
			RatePerMin:       12,
			DiurnalPeriod:    2 * time.Minute,
			DiurnalAmplitude: 0.5,
			NumNodes:         32,
			Requesters:       []int{2, 5, 11, 17, 23, 29},
			RequestsPerItem:  2,
			TypeZipfS:        1.2,
			Users:            100_000,
			UserZipfS:        1.3,
			SessionEpoch:     30 * time.Second,
			Seed:             seed*10_000 + 1,
		},
		RequestDelay: 15 * time.Second,
	}
	res := driveOpenLoop(t, c, wopts, alloc.DefaultMinReplicas, 10*time.Minute)

	if res.stats.Published < 10 {
		t.Fatalf("open-loop run published only %d items: %+v", res.stats.Published, res.stats)
	}
	if res.stats.PublishErrors != 0 || res.stats.SkippedDead != 0 {
		t.Fatalf("healthy cluster rejected arrivals: %+v", res.stats)
	}
	// No churn: every produced item fans out to exactly RequestsPerItem
	// requester fetches.
	if want := 2 * res.stats.Published; res.stats.Requests != want {
		t.Fatalf("%d requester fetches for %d items, want %d",
			res.stats.Requests, res.stats.Published, want)
	}
	if res.height < 2 {
		t.Fatalf("chain barely moved: height %d", res.height)
	}
	// Golden fingerprint at the default seed: a change that claims to alter
	// only cost (caching, encoding, sorting) must leave every network event
	// — order, time, bytes — where it was. A change that means to alter
	// behaviour updates these three numbers and says why. Recorded on
	// linux/amd64; placement uses floating point, so another architecture
	// may legitimately differ.
	//
	// Re-pinned once for compact block relay (DESIGN.md §13.1): the answer
	// to FrameGetBlock is now a FrameCompactBlock, so every fetched body's
	// send and deliver events carry another frame type and a smaller size.
	// No receiver misses an item in this run, so the event count and the
	// height did not move.
	//
	// Re-pinned once for the directed data fetch (DESIGN.md §11.1): a fetch
	// asks one holder where it used to broadcast to all 31 peers and be
	// answered by every holder, so the request and answer fan-out is gone
	// (31 346 → 27 980 events) and the requests that remain carry four more
	// bytes. Nothing on the consensus plane moved: the height is still 24.
	//
	// Re-pinned once for short-ID metadata announces (DESIGN.md §15.1): every
	// FrameMetaAnnounce and every announce-driven FrameGetMeta carries an
	// 8-byte short ID where it carried the 32-byte data ID, and frame sizes
	// are folded into the digest. Who sends what to whom and when did not
	// move: still 27 980 events, still height 24.
	//
	// Re-pinned once for the O(n·k) connect (DESIGN.md §10): Connect no
	// longer sleeps 50 ms of virtual time per call, so the 32 nodes are wired
	// at the epoch instead of over 1.6 s with mining timers firing in
	// between, and its locator probe goes to a fan-out sample drawn on the
	// gossip RNG instead of to every peer, which shifts every later sample.
	// A different but equally valid trajectory: 28 740 events, height 31.
	//
	// Re-pinned once for the varint wire format (DESIGN.md "Wire format"):
	// items, blocks, compact blocks, ID lists, announces and the sync frames
	// are all smaller on the wire, and frame sizes are folded into the
	// digest. Hashed and signed bytes did not change, so every winner, fork
	// and placement is the same: still 28 740 events, still height 31. If
	// either of those two moves, something other than the encoding changed.
	//
	// Re-pinned once for the tree relay (DESIGN.md §13, §15.1), and this time
	// the trajectory moves on purpose: items and blocks are pushed along a
	// spanning tree instead of announced to six peers and fetched, so who
	// sends what to whom, and when, is different from the first publish on —
	// a body arrives after one link delay per hop instead of three, a node
	// hears two backup announces per item instead of six, a synced tip is
	// announced, and a locator that has nothing to offer is not answered. Less
	// than half the events for the same workload: 12 964 (28 740), height 27.
	//
	// Re-pinned once for short-ID compact references (DESIGN.md §13.1): each
	// FrameCompactBlock names an item by its 8-byte short ID where it named
	// it by the 32-byte data ID, and frame sizes are folded into the digest.
	// Nothing collides and no receiver misses an item it would have resolved
	// before, so the trajectory did not move: still 12 964 events, height 27.
	//
	// Re-pinned once: bindings from the hello (DESIGN.md §11.1). Each link's
	// hello names its ends by roster index, so no fetch broadcasts to learn
	// an address, and a request is 33 bytes where it was 36: 11 316 events,
	// still height 27.
	//
	// Re-pinned once: metadata items open with a flags byte (DESIGN.md §17)
	// and leave their empty fields out, so item and block frames shrink and
	// the digest moves with their sizes. Canonical bytes are the same: still
	// 11 316 events, height 27.
	//
	// Re-pinned once: the metadata plane's backup announce is gone (DESIGN.md
	// §15.1: the next block is its backup). Two short IDs per item-node and
	// the duplicate suppressions they drew leave the log, and every frame not
	// sent shifts memnet's one delay RNG, so later frames draw other delays:
	// 8 908 events, still height 27.
	if seed == 1 && runtime.GOARCH == "amd64" {
		const digest, events, height = 0x65c4f9456a241513, 8908, 27
		if res.digest != digest || res.events != events || res.height != height {
			t.Fatalf("cluster behaviour changed at seed 1: digest %016x events %d height %d, golden %016x %d %d",
				res.digest, res.events, res.height, uint64(digest), events, height)
		}
	}
}

// TestChaosFlashCrowd is the ISSUE's marquee scenario: 128 nodes, a
// diurnal rate whose peak is straddled by a 10× flash-crowd burst, a
// million logical users with mobility, and ~5% concurrent node churn
// (Poisson outages with restarts) with the self-healing repair plane on.
// The cluster must converge with the replication floor restored, and two
// full runs must be bit-identical (equal event digests and counts).
func TestChaosFlashCrowd(t *testing.T) {
	t.Parallel()
	seed := *seedFlag
	opts := Options{
		N:               128,
		Seed:            seed,
		StorageCapacity: 64,
		RepairWorkers:   2,
		// Sampled probing (§15) spreads liveness evidence over ~roster /
		// (fanout·(digest+1)) ≈ 2 ticks, so the dead window must span
		// several ticks or alive nodes flap dead and repair re-announces
		// forever. 5s ticks with a 60s window give 12 ticks of slack.
		RepairProbeEvery:   5 * time.Second,
		RepairSuspectAfter: 30 * time.Second,
		RepairHysteresis:   30 * time.Second,
	}
	requesters := make([]int, 0, 13)
	for i := 3; i < 128; i += 10 {
		requesters = append(requesters, i)
	}
	wopts := WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:         3 * time.Minute,
			RatePerMin:       12,
			DiurnalPeriod:    4 * time.Minute, // peak at t=60s
			DiurnalAmplitude: 0.8,
			BurstEvery:       10 * time.Minute, // one window within the horizon...
			BurstOffset:      45 * time.Second, // ...straddling the diurnal peak
			BurstDuration:    30 * time.Second,
			BurstFactor:      10,
			NumNodes:         128,
			Requesters:       requesters,
			RequestsPerItem:  2,
			TypeZipfS:        1.1,
			Users:            1_000_000,
			UserZipfS:        1.2,
			SessionEpoch:     45 * time.Second,
			Seed:             seed*10_000 + 1,
		},
		RequestDelay: 15 * time.Second,
	}
	// ~8 outages/min × 45s mean downtime ≈ 6 nodes down at a time ≈ 5%.
	churn, err := workload.GenerateChurn(workload.ChurnConfig{
		Horizon:      3 * time.Minute,
		EventsPerMin: 8,
		MeanDown:     45 * time.Second,
		NumNodes:     128,
		Protect:      []int{0},
		Seed:         seed*10_000 + 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	wopts.Churn = churn

	run := func() openLoopResult {
		// Every node is durable. With in-memory stores an unlucky seed can
		// churn away every holder of some item's bytes at once, leaving the
		// replication floor unrecoverable (seed 7 does exactly that). Real
		// edge nodes restart with their disks; so do these.
		base := t.TempDir()
		o := opts
		o.DataDirs = make([]string, o.N)
		for i := range o.DataDirs {
			o.DataDirs[i] = filepath.Join(base, fmt.Sprintf("n%03d", i))
		}
		c := newQuietCluster(t, o)
		return driveOpenLoop(t, c, wopts, alloc.DefaultMinReplicas, 20*time.Minute)
	}
	r1 := run()

	if r1.stats.Published < 50 {
		t.Fatalf("flash crowd published only %d items: %+v", r1.stats.Published, r1.stats)
	}
	if r1.stats.ChurnDowns < 5 || r1.stats.ChurnRestarts < 1 {
		t.Fatalf("churn barely happened: %+v", r1.stats)
	}
	t.Logf("flash crowd: %+v; height=%d events=%d wire=%dB converge=%v gini=%.3f",
		r1.stats, r1.height, r1.events, r1.wireB, r1.converge, r1.gini)

	r2 := run()
	if r1 != r2 {
		t.Fatalf("double run diverged:\n run1: %+v\n run2: %+v", r1, r2)
	}
}

// TestChaosScale256OpenLoop scales the deterministic harness to 256
// nodes: a Poisson open-loop stream over two million logical users runs
// to exhaustion, the cluster converges with the replication floor intact,
// and a second full run is bit-identical.
func TestChaosScale256OpenLoop(t *testing.T) {
	t.Parallel()
	seed := *seedFlag
	opts := Options{N: 256, Seed: seed, StorageCapacity: 64}
	requesters := make([]int, 0, 16)
	for i := 7; i < 256; i += 16 {
		requesters = append(requesters, i)
	}
	wopts := WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:        90 * time.Second,
			RatePerMin:      40,
			NumNodes:        256,
			Requesters:      requesters,
			RequestsPerItem: 2,
			TypeZipfS:       1.1,
			Users:           2_000_000,
			UserZipfS:       1.2,
			SessionEpoch:    45 * time.Second,
			Seed:            seed*10_000 + 3,
		},
		RequestDelay: 15 * time.Second,
	}
	run := func() openLoopResult {
		c := newQuietCluster(t, opts)
		return driveOpenLoop(t, c, wopts, alloc.DefaultMinReplicas, 15*time.Minute)
	}
	r1 := run()
	if r1.stats.Published < 30 {
		t.Fatalf("256-node run published only %d items: %+v", r1.stats.Published, r1.stats)
	}
	t.Logf("256 nodes: %+v; height=%d events=%d wire=%dB converge=%v gini=%.3f",
		r1.stats, r1.height, r1.events, r1.wireB, r1.converge, r1.gini)

	r2 := run()
	if r1 != r2 {
		t.Fatalf("double run diverged:\n run1: %+v\n run2: %+v", r1, r2)
	}
}

// BenchmarkScalingCurve regenerates the EXPERIMENTS.md scaling table:
// cluster size × arrival rate → wall-clock per run (ns/op), total wire
// bytes, virtual convergence time after the last arrival, and the Gini
// coefficient of blocks won (leader-election fairness at scale).
//
//	go test -bench BenchmarkScalingCurve -benchtime 1x ./internal/chaos
func BenchmarkScalingCurve(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1000} {
		for _, rate := range []float64{30, 120} {
			b.Run(fmt.Sprintf("n=%d/rate=%.0f", n, rate), func(b *testing.B) {
				if n >= 1000 && testing.Short() {
					b.Skip("1000-node curve point skipped in -short")
				}
				for i := 0; i < b.N; i++ {
					res := measureScalePoint(b, n, rate)
					b.ReportMetric(float64(res.stats.Published), "items")
					b.ReportMetric(float64(res.wireB), "wireB")
					b.ReportMetric(res.converge.Seconds(), "vsec/converge")
					b.ReportMetric(res.gini, "gini/blocks")
				}
			})
		}
	}
}

func measureScalePoint(b *testing.B, n int, rate float64) openLoopResult {
	requesters := make([]int, 0, 16)
	for i := 1; i < n; i += n / 8 {
		requesters = append(requesters, i)
	}
	wopts := WorkloadOptions{
		Stream: workload.StreamConfig{
			Duration:        time.Minute,
			RatePerMin:      rate,
			NumNodes:        n,
			Requesters:      requesters,
			RequestsPerItem: 2,
			TypeZipfS:       1.1,
			Users:           1_000_000,
			UserZipfS:       1.2,
			SessionEpoch:    45 * time.Second,
			Seed:            9001,
		},
		RequestDelay: 15 * time.Second,
	}
	c := newQuietCluster(b, Options{N: n, Seed: 1, StorageCapacity: 96})
	return driveOpenLoop(b, c, wopts, alloc.DefaultMinReplicas, 15*time.Minute)
}
