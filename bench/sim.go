package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/chaos"
	"repro/internal/livenode"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/p2p/memnet"
	"repro/internal/repair"
	"repro/internal/workload"
)

// simSpec sizes one virtual-time workload. All three share one harness: a
// chaos.Cluster on memnet and the virtual clock, an open-loop
// workload.Stream scheduled on that clock, and the polling tracker.
type simSpec struct {
	name        string
	n           int
	ratePerMin  float64
	burstFactor float64 // > 0: a 10 s flash-crowd window of this factor every two minutes
	// vminPerSec converts the requested run length into the virtual horizon
	// of the load: on the 2-core reference box the measured window then takes
	// about the requested number of wall seconds.
	vminPerSec float64
	requesters int
	churn      bool // durable nodes, repair on, crashes and restarts
}

var simSpecs = map[string]simSpec{
	"sim-flash": {name: "sim-flash", n: 64, ratePerMin: 60, burstFactor: 20, vminPerSec: 0.4, requesters: 8},
	"sim-scale": {name: "sim-scale", n: 256, ratePerMin: 40, vminPerSec: 0.3, requesters: 16},
	"sim-churn": {name: "sim-churn", n: 64, ratePerMin: 30, vminPerSec: 0.6, requesters: 8, churn: true},
}

const (
	simT0        = 30 * time.Second
	simSlice     = 10 * time.Millisecond // virtual time between polls
	simReqDelay  = 3 * simT0             // publish → requester fetches
	simPayload   = 1024
	simCapacity  = 2000
	replicaFloor = alloc.DefaultMinReplicas
	// Ledger snapshots every few blocks, on every workload. The default
	// cadence of 32 never fires on a benchmark chain of 10-20 blocks, so every
	// fork adoption would replay the chain from genesis: a cost a node that
	// has been up for an hour does not pay, and one that swung CPU per item by
	// half between seeds with the lottery (0 against 50 full replays).
	snapshotEvery = 4
	// One-way link delay: the paper's 10 ms per hop, drawn uniformly from
	// 8-12 ms so virtual latencies are not all multiples of one constant.
	simDelayMin = 8 * time.Millisecond
	simDelayMax = 12 * time.Millisecond
	// Set-up is timed over repeated builds: see setUpSim.
	setupMin    = 3
	setupBudget = time.Second
	// Client behaviour when the program lets an operation hang: under churn a
	// requester asks again after this long, and a producer whose item no chain
	// has publishes it again after republishAfter. Both are counted
	// (retried_share): the operation succeeds in the end, but only because the
	// client did the program's work.
	fetchRetryEvery = 5 * time.Second
	republishAfter  = 4 * simT0
)

type fetchKey struct {
	node int
	id   meta.DataID
}

type fetchOp struct {
	start   int64
	done    int64 // -1 until OnData delivered content with the right hash
	bad     bool  // content did not hash to the id
	retried bool  // unanswered after fetchRetryEvery, so asked again
}

// outage is one harness-scheduled crash and what followed it.
type outage struct {
	node      int
	crashAt   int64
	assigned  []meta.DataID // items the node was a provider of when it crashed
	restored  int64         // -1 until none of them is below the floor
	restartAt int64         // -1 until restarted
	target    uint64        // height the node has to reach after restart
	caughtUp  int64         // -1 until reached
}

type simRun struct {
	sp     simSpec
	seed   int64
	rec    *recorder
	window int // the measured window's span, parent of the spans inside it
	c      *chaos.Cluster
	tr     *tracker
	holds  holder
	ref    *speedRef

	stream       *workload.Stream
	start        int64 // virtual ns of stream t=0
	streamDone   bool
	published    int
	unpacked     []meta.DataID // published, not yet known to be on node 0's chain
	sent         map[meta.DataID]publication
	republished  int
	lastRetry    int64
	publishErrs  int
	skippedDead  int
	skippedHeld  int
	fetches      map[fetchKey]*fetchOp
	outages      []*outage
	restartWalls []float64
}

func (r *simRun) vnow() int64 { return int64(r.c.Clock.Now().Sub(r.c.Epoch)) }

// buildSim creates, connects and warms one cluster: set-up as the ledger
// defines it.
func buildSim(sp simSpec, seed int64, dataRoot string) (*chaos.Cluster, error) {
	opts := chaos.Options{
		N:               sp.n,
		Seed:            seed,
		T0:              simT0,
		StorageCapacity: simCapacity,
		SnapshotEvery:   snapshotEvery,
		Faults:          memnet.Params{DelayMin: simDelayMin, DelayMax: simDelayMax},
	}
	if sp.churn {
		opts.RepairWorkers = 2
		opts.RepairProbeEvery = 5 * time.Second
		opts.RepairSuspectAfter = 30 * time.Second
		opts.RepairHysteresis = 30 * time.Second
		opts.DataDirs = make([]string, sp.n)
		for i := range opts.DataDirs {
			opts.DataDirs[i] = filepath.Join(dataRoot, fmt.Sprintf("n%03d", i))
		}
	}
	c, err := chaos.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	c.Net.SetRecording(false)
	if err := c.ConnectAll(); err != nil {
		c.Close()
		return nil, err
	}
	warm := func() bool {
		for _, nd := range c.Nodes() {
			if nd.Height() < 1 {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(warm, 10*time.Minute); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// spread returns k node indices evenly spaced over [1, n).
func spread(n, k int) []int {
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, 1+i*(n-1)/k)
	}
	return out
}

// setUpSim builds the cluster the run measures and returns the time each
// build + connect + warm took, for the median: it builds repeatedly at the
// same seed (the driver's contract asks for several set-ups in a run), until
// setupBudget is spent and at least setupMin times, and the last cluster built
// is the one returned. All of it happens before the measured window and
// before a traced run starts its CPU profile.
//
// The time is wall time, except with durable nodes: there most of the wall
// time is fsync on the sandbox's disk (64 stores opened and a block appended
// to each), which is not the program and drifts by a factor of two within
// minutes (seed 1, five runs over ten minutes: 70, 92, 119, 121, 154 ms wall
// against 31, 37, 35, 29, 33 ms user; user+sys drifts with the wall). So, like
// the window's CPU per item, set-up is then read on the process's user CPU
// clock.
func setUpSim(sp simSpec, seed int64, tmpRoot string, rec *recorder) (*chaos.Cluster, []float64, error) {
	var (
		c     *chaos.Cluster
		dir   string
		times []float64
	)
	for spent := time.Duration(0); len(times) < setupMin || spent < setupBudget; {
		if c != nil {
			c.Close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
		dir = filepath.Join(tmpRoot, fmt.Sprintf("setup%d", len(times)))
		t0, cpu0 := time.Now(), cpuTime(true)
		var err error
		if c, err = buildSim(sp, seed, dir); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		wall := time.Since(t0)
		rec.add("setup", "wall", 0, rec.wall(t0), rec.wall(t0.Add(wall)), "")
		spent += wall
		if sp.churn {
			times = append(times, (cpuTime(true) - cpu0).Seconds())
		} else {
			times = append(times, wall.Seconds())
		}
	}
	return c, times, nil
}

// runSim measures one workload on a cluster that is built and warm; it closes
// the cluster.
func runSim(sp simSpec, seed int64, seconds int, rec *recorder, c *chaos.Cluster) (*outcome, error) {
	defer c.Close()
	out := newOutcome(sp.n, simT0)
	r := &simRun{sp: sp, seed: seed, rec: rec, c: c, fetches: make(map[fetchKey]*fetchOp), sent: make(map[meta.DataID]publication)}
	r.holds = holderOf(func(i int) *livenode.Node { return r.c.Node(i) })

	horizon := time.Duration(float64(seconds) * sp.vminPerSec * float64(time.Minute))
	pool := spread(sp.n, sp.requesters)
	r.tr = newTracker(sp.n)
	if sp.churn {
		r.tr.alive = func() []bool {
			live := make([]bool, sp.n)
			for i := range live {
				live[i] = c.Node(i) != nil
			}
			return live
		}
	}
	cfg := workload.StreamConfig{
		Duration:        horizon,
		RatePerMin:      sp.ratePerMin,
		NumNodes:        sp.n,
		Requesters:      pool,
		RequestsPerItem: 2,
		TypeZipfS:       1.1,
		Users:           1_000_000,
		UserZipfS:       1.2,
		SessionEpoch:    45 * time.Second,
		Seed:            seed*10_000 + 1,
	}
	if sp.burstFactor > 0 {
		cfg.BurstEvery = 2 * time.Minute
		cfg.BurstOffset = 30 * time.Second
		cfg.BurstDuration = 10 * time.Second
		cfg.BurstFactor = sp.burstFactor
	}
	stream, err := workload.NewStream(cfg)
	if err != nil {
		return nil, err
	}
	stream.SetAlive(func(i int) bool { return c.Node(i) != nil })
	r.stream = stream
	for _, i := range pool {
		r.watchData(i)
	}

	// Measured window: the load, the trailing fetches and the settle. With
	// durable nodes only user CPU is counted: the system share is fsync and
	// stat on the sandbox's disk, which is not the program and does not
	// repeat (the same seed read 34 and 44 ms per item minutes apart).
	r.ref = newSpeedRef()
	r.window = rec.open("measured-window", sp.name)
	wall0, cpu0, v0 := time.Now(), cpuTime(sp.churn), r.vnow()
	r.start = v0
	if sp.churn {
		if err := r.scheduleFaults(horizon, pool); err != nil {
			return nil, err
		}
	}
	r.scheduleNext()
	loadEnd := v0 + int64(horizon+simReqDelay)
	for !r.streamDone || r.vnow() < loadEnd {
		r.step()
	}
	// Every fault is over: bring back whoever is still down and wait for one
	// chain, the replica floor and the outstanding fetches.
	for i := 0; i < sp.n; i++ {
		r.restart(i)
	}
	r.lastRetry = r.vnow()
	settleBy := r.vnow() + int64(20*time.Minute)
	settled := false
	for k := 0; r.vnow() < settleBy; k++ {
		r.step()
		if k%10 == 0 && r.quiet() {
			settled = true
			break
		}
	}
	r.tr.pollReplicasNow(r.holds, r.vnow())
	wall, cpu, vspan := time.Since(wall0), cpuTime(sp.churn)-cpu0, r.vnow()-v0
	rec.close(r.window)

	// Correctness: the cluster's invariants, then every operation.
	if !settled {
		out.fail("cluster did not settle within 20 virtual minutes: converged=%v replication=%v",
			c.Converged(), c.CheckReplication(replicaFloor))
	}
	if err := c.CheckInvariants(); err != nil {
		out.fail("invariants: %v", err)
	}
	if err := c.CheckReplication(replicaFloor); err != nil {
		out.fail("replication: %v", err)
	}
	canonical := c.Node(0).ChainSnapshot()
	res := r.tr.resolve(canonical)
	var fetchMs []float64
	fetchFailed, fetchRetried := 0, 0
	for _, op := range r.fetches {
		if op.retried {
			fetchRetried++
		}
		if op.done < 0 || op.bad {
			fetchFailed++
			continue
		}
		fetchMs = append(fetchMs, float64(op.done-op.start)/1e6)
	}
	sort.Float64s(fetchMs) // map order must not leak into the numbers
	out.attempted = r.published + r.publishErrs + len(r.fetches)
	out.failed = r.publishErrs + res.notCanonical + res.notReplica + fetchFailed
	out.republished, out.fetchRetries = r.republished, fetchRetried
	out.record(res, sumCounters(c, sp.n), cpu, r.ref, fetchMs, rec)
	out.settle()

	m := out.metrics
	m["wall_s"] = wall.Seconds()
	m["gini_storage"] = metrics.GiniInts(c.Node(0).StorageUsed())
	var restore, catchup []float64
	for _, o := range r.outages {
		if o.restored >= 0 {
			restore = append(restore, float64(o.restored-o.crashAt)/1e6)
		}
		if o.caughtUp >= 0 {
			catchup = append(catchup, float64(o.caughtUp-o.restartAt)/1e6)
		}
	}
	m["restore_p50_ms"], m["catchup_p50_ms"] = median(restore), median(catchup)

	m["memnet.events"] = float64(c.Net.EventCount())
	m["memnet.events_per_s"] = float64(c.Net.EventCount()) / wall.Seconds()
	net := c.NetTelemetry().Snapshot()
	m["memnet.delivered"] = float64(net.Counter("memnet.delivered"))
	m["memnet.partition_kills"] = float64(net.Counter("memnet.partition_kills"))
	m["chaos.wall_ms_per_vsec"] = wall.Seconds() * 1e3 / (float64(vspan) / 1e9)
	m["store.restart_wall_ms"] = median(r.restartWalls)

	out.info["event_digest"] = fmt.Sprintf("%016x", c.Net.EventDigest())
	out.info["event_count"] = fmt.Sprint(c.Net.EventCount())
	out.info["virtual_window_s"] = fmt.Sprintf("%.2f", float64(vspan)/1e9)
	out.info["items_committed"] = fmt.Sprint(res.committed)
	out.info["height"] = fmt.Sprint(len(canonical) - 1)
	out.info["fetches_skipped_at_holders"] = fmt.Sprint(r.skippedHeld)
	out.info["skipped_dead_producer"] = fmt.Sprint(r.skippedDead)
	out.info["failed_ops"] = fmt.Sprintf("publish=%d not_canonical=%d not_replicated=%d fetch=%d",
		r.publishErrs, res.notCanonical, res.notReplica, fetchFailed)
	if sp.churn {
		out.info["outages"] = fmt.Sprintf("%d crashes, restore n=%d, catchup n=%d", len(r.outages), len(restore), len(catchup))
	}
	out.canonical, out.accounts, out.used = canonical, c.Accounts(), c.Node(0).StorageUsed()
	return out, nil
}

// step advances one slice of virtual time and polls.
func (r *simRun) step() {
	c := r.c
	c.Run(simSlice)
	r.ref.tick()
	now := r.vnow()
	for i := 0; i < r.sp.n; i++ {
		if nd := c.Node(i); nd != nil {
			r.tr.pollChain(i, nd, now)
		}
	}
	r.tr.pollReplicas(r.holds, now)
	if len(r.outages) == 0 {
		return
	}
	for _, o := range r.outages {
		if o.restartAt >= 0 && o.caughtUp < 0 {
			if nd := c.Node(o.node); nd != nil && nd.Height() >= o.target {
				o.caughtUp = now
			}
		}
	}
	if now%int64(time.Second) < int64(simSlice) {
		r.pollRestored(now)
	}
}

// quiet reports whether the run can end: nothing in flight, every fetch and
// outage closed, every item packed, one chain, and every assigned live provider holding its
// bytes (which also completes the tracker's canonical placements; those on
// fork losers stay open for ever and are ignored).
func (r *simRun) quiet() bool {
	if r.c.Net.Pending() != 0 {
		return false
	}
	for _, op := range r.fetches {
		if op.done < 0 {
			return false
		}
	}
	for _, o := range r.outages {
		if o.restored < 0 || o.caughtUp < 0 {
			return false
		}
	}
	// Every item has to be packed; one that no chain has is published again
	// every four block intervals (see onNoChain in observe.go).
	for len(r.unpacked) > 0 && r.c.Node(0).HasItemOnChain(r.unpacked[len(r.unpacked)-1]) {
		r.unpacked = r.unpacked[:len(r.unpacked)-1]
	}
	if len(r.unpacked) > 0 {
		if now := r.vnow(); now-r.lastRetry >= int64(republishAfter) {
			r.lastRetry = now
			r.republish()
		}
		return false
	}
	return r.c.Converged() && r.c.CheckReplication(replicaFloor) == nil
}

// republish publishes again every item that is still on no chain.
func (r *simRun) republish() {
	nodes := make([]*livenode.Node, r.sp.n)
	for i := range nodes {
		nodes[i] = r.c.Node(i)
	}
	for _, id := range r.unpacked {
		p := r.sent[id]
		if nd := nodes[p.producer]; nd != nil && onNoChain(nodes, id) {
			if _, err := nd.Publish(p.content, p.typ, ""); err == nil {
				r.republished++
			}
		}
	}
}

func (r *simRun) scheduleNext() {
	ev, ok := r.stream.Next()
	if !ok {
		r.streamDone = true
		return
	}
	due := r.start + int64(ev.At)
	wait := time.Duration(due - r.vnow())
	if wait < 0 {
		wait = 0
	}
	r.c.Clock.AfterFunc(wait, func() { r.fire(ev, due) })
}

// fire publishes one arrival at its producer and schedules its fetches.
func (r *simRun) fire(ev workload.Event, due int64) {
	defer r.scheduleNext()
	nd := r.c.Node(ev.Producer)
	if nd == nil {
		r.skippedDead++ // crashed after the generator picked it
		return
	}
	content := make([]byte, simPayload)
	copy(content, fmt.Sprintf("%s seed=%d seq=%08d user=%d", r.sp.name, r.seed, r.stream.Seq(), ev.User))
	var t0 time.Time
	if r.rec != nil {
		t0 = time.Now()
	}
	it, err := nd.Publish(content, ev.Type, "")
	if err != nil {
		r.publishErrs++
		return
	}
	if r.rec != nil {
		r.rec.add("livenode.Publish", "wall", r.window, r.rec.wall(t0), r.rec.wall(time.Now()), it.ID.Short())
	}
	r.published++
	r.unpacked = append(r.unpacked, it.ID)
	r.sent[it.ID] = publication{ev.Producer, content, ev.Type}
	r.tr.published(it.ID, due)
	for _, req := range ev.Requesters {
		req := req
		r.c.Clock.AfterFunc(simReqDelay, func() { r.fetch(req, it.ID) })
	}
}

// watchData installs the fetch-completion callback on node i.
func (r *simRun) watchData(i int) {
	r.c.Node(i).SetOnData(func(id meta.DataID, content []byte) {
		op := r.fetches[fetchKey{i, id}]
		if op == nil || op.done >= 0 {
			return
		}
		op.done = r.vnow()
		op.bad = meta.HashData(content) != id
		r.rec.add("livenode.RequestData", "virtual", r.window, op.start, op.done, fmt.Sprintf("node=%d item=%s", i, id.Short()))
	})
}

// fetch issues one requester's RequestData. Under faults the client keeps
// asking every five seconds until the bytes arrive, like a user would; the
// latency runs from the first request.
func (r *simRun) fetch(node int, id meta.DataID) {
	nd := r.c.Node(node)
	if nd == nil {
		return
	}
	key := fetchKey{node, id}
	op := r.fetches[key]
	if op == nil {
		if nd.HasData(id) {
			r.skippedHeld++ // a storing node has nothing to fetch
			return
		}
		op = &fetchOp{start: r.vnow(), done: -1}
		r.fetches[key] = op
	} else if op.done >= 0 {
		return
	} else {
		op.retried = true
	}
	nd.RequestData(id)
	if r.sp.churn {
		r.c.Clock.AfterFunc(fetchRetryEvery, func() { r.fetch(node, id) })
	}
}

// scheduleFaults arms the churn trace. The harness schedules it itself, rather than through chaos.WorkloadOptions.Churn,
// so it can time every restart and follow each outage to its repair.
func (r *simRun) scheduleFaults(horizon time.Duration, pool []int) error {
	protect := append([]int{0}, pool...)
	churn, err := workload.GenerateChurn(workload.ChurnConfig{
		Horizon:      horizon,
		EventsPerMin: 6,
		MeanDown:     40 * time.Second,
		NumNodes:     r.sp.n,
		Protect:      protect,
		Seed:         r.seed*10_000 + 2,
	})
	if err != nil {
		return err
	}
	clock := r.c.Clock
	for _, ev := range churn {
		ev := ev
		clock.AfterFunc(ev.At, func() {
			if !r.crash(ev.Node) {
				return
			}
			clock.AfterFunc(ev.Down, func() { r.restart(ev.Node) })
		})
	}
	return nil
}

func (r *simRun) crash(i int) bool {
	c := r.c
	if c.Node(i) == nil || r.streamDone {
		return false
	}
	o := &outage{node: i, crashAt: r.vnow(), restored: -1, restartAt: -1, caughtUp: -1}
	idx := r.providerIndex()
	o.assigned = append(o.assigned, idx.Items(i)...)
	if err := c.Crash(i); err != nil {
		return false
	}
	r.outages = append(r.outages, o)
	return true
}

// restart brings node i back if it is down, timing the call: it is
// store.Open, WAL replay and reconnect.
func (r *simRun) restart(i int) {
	c := r.c
	if c.Node(i) != nil {
		return
	}
	// The height to catch up to: the best among the live nodes.
	var target uint64
	for j := 0; j < r.sp.n; j++ {
		if nd := c.Node(j); nd != nil && nd.Height() > target {
			target = nd.Height()
		}
	}
	t0 := time.Now()
	err := c.Restart(i)
	wall := time.Since(t0)
	if err != nil {
		return
	}
	r.restartWalls = append(r.restartWalls, wall.Seconds()*1e3)
	r.rec.add("chaos.Restart", "wall", r.window, r.rec.wall(t0), r.rec.wall(time.Now()), fmt.Sprintf("node=%d", i))
	r.tr.forget(i)
	for _, o := range r.outages {
		if o.node == i && o.restartAt < 0 {
			o.restartAt, o.target = r.vnow(), target
		}
	}
}

// providerIndex rebuilds the chain-derived provider index from the first
// live node, the same derivation chaos.CheckReplication uses.
func (r *simRun) providerIndex() *repair.Index {
	idx := repair.NewIndex(r.sp.n)
	for _, nd := range r.c.Nodes() {
		idx.Rebuild(nd.ChainSnapshot())
		break
	}
	idx.ExpireUntil(r.c.Clock.Now().Sub(r.c.Epoch))
	return idx
}

// pollRestored closes every outage none of whose items is still below the
// replica floor: each has enough live providers that hold the bytes, be it
// through repair or because the node came back with its disk.
func (r *simRun) pollRestored(now int64) {
	var idx *repair.Index
	for _, o := range r.outages {
		if o.restored >= 0 {
			continue
		}
		if idx == nil {
			idx = r.providerIndex()
		}
		ok := true
		for _, id := range o.assigned {
			providers := idx.Providers(id)
			if len(providers) == 0 {
				continue // expired
			}
			holding := 0
			for _, p := range providers {
				if nd := r.c.Node(p); nd != nil && nd.HasData(id) {
					holding++
				}
			}
			if holding < replicaFloor {
				ok = false
				break
			}
		}
		if ok {
			o.restored = now
		}
	}
}
