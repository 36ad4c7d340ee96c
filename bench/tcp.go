package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/pos"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// tcp-steady: eight in-process nodes over real TCP loopback on the wall
// clock. The load is open loop at a moderate rate on purpose: on a
// wall-clock PoS lottery overload is not repeatable, so saturation is left
// to the virtual-time workloads.
const (
	tcpNodes      = 8
	tcpT0         = time.Second
	tcpRatePerSec = 100
	tcpRounds     = 3 // fresh clusters; every metric is the median over them
	tcpFetches    = 300
	tcpDrainMax   = 20 * time.Second
	tcpCapacity   = 2000
	tcpPayload    = 1024
	tcpClient     = 0               // publishes nothing: the fetch client
	tcpRetryEvery = 4 * time.Second // how often a producer republishes an item no chain has
)

type tcpCluster struct {
	nodes    []*livenode.Node
	regs     []*telemetry.Registry
	accounts []identity.Address
}

func (c *tcpCluster) close() {
	for _, nd := range c.nodes {
		if nd != nil {
			_ = nd.Close()
		}
	}
}

// buildTCP creates, connects and warms one cluster. Set-up time leaves out
// the idle wait for the first lottery win (whole seconds of sleep that say
// nothing about the program): it is build + connect, plus first block
// anywhere → height ≥ 1 everywhere.
func buildTCP(seed int64) (c *tcpCluster, setup, idle time.Duration, err error) {
	t0 := time.Now()
	rng := rand.New(rand.NewSource(seed))
	idents := make([]*identity.Identity, tcpNodes)
	c = &tcpCluster{accounts: make([]identity.Address, tcpNodes)}
	for i := range idents {
		idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = idents[i].Address()
	}
	epoch := time.Now()
	for i := 0; i < tcpNodes; i++ {
		reg := telemetry.NewRegistry()
		nd, err := livenode.New(livenode.Config{
			Identity:        idents[i],
			Accounts:        c.accounts,
			PoS:             pos.Params{M: pos.DefaultM, T0: tcpT0},
			GenesisSeed:     42,
			Epoch:           epoch,
			ListenAddr:      "127.0.0.1:0",
			StorageCapacity: tcpCapacity,
			SnapshotEvery:   snapshotEvery,
			Telemetry:       reg,
		})
		if err != nil {
			c.close()
			return nil, 0, 0, fmt.Errorf("tcp-steady: node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
		c.regs = append(c.regs, reg)
	}
	for i, nd := range c.nodes[:tcpNodes-1] {
		addrs := make([]string, 0, tcpNodes)
		for _, peer := range c.nodes[i+1:] {
			addrs = append(addrs, peer.Addr())
		}
		if err := nd.Connect(addrs...); err != nil {
			c.close()
			return nil, 0, 0, fmt.Errorf("tcp-steady: connect %d: %w", i, err)
		}
	}
	connected := time.Now()
	var first time.Time
	for deadline := connected.Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		lowest, highest := c.nodes[0].Height(), uint64(0)
		for _, nd := range c.nodes {
			h := nd.Height()
			lowest, highest = min(lowest, h), max(highest, h)
		}
		if highest >= 1 && first.IsZero() {
			first = time.Now()
		}
		if lowest >= 1 {
			break
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, 0, 0, fmt.Errorf("tcp-steady: cluster did not warm to height 1 in 30 s")
		}
	}
	warm := time.Now()
	return c, connected.Sub(t0) + warm.Sub(first), first.Sub(connected), nil
}

// agreedPrefix returns the longest chain prefix every node holds and which
// of ids are not on it.
func agreedPrefix(nodes []*livenode.Node, ids []meta.DataID) (chain []*block.Block, missing []meta.DataID) {
	chain = nodes[0].ChainSnapshot()
	for _, nd := range nodes[1:] {
		other := nd.ChainSnapshot()
		if len(other) < len(chain) {
			chain = chain[:len(other)]
		}
		for len(chain) > 0 && other[len(chain)-1].Hash != chain[len(chain)-1].Hash {
			chain = chain[:len(chain)-1]
		}
	}
	packed := make(map[meta.DataID]bool, len(ids))
	for _, b := range chain {
		for _, it := range b.Items {
			packed[it.ID] = true
		}
	}
	for _, id := range ids {
		if !packed[id] {
			missing = append(missing, id)
		}
	}
	return chain, missing
}

// tcpRound is one fresh cluster: open-loop load, drain, closed-loop fetches.
func tcpRound(seed int64, load time.Duration, rec *recorder) (*outcome, error) {
	out := newOutcome(tcpNodes, tcpT0)
	c, setup, idle, err := buildTCP(seed)
	if err != nil {
		return nil, err
	}
	defer c.close()
	m := out.metrics
	m["setup_s"] = setup.Seconds()
	out.info["lottery_wait_s"] = fmt.Sprintf("%.3f", idle.Seconds())

	ref := newSpeedRef() // sampled by the poller goroutine
	span := rec.open("measured-window", fmt.Sprintf("seed=%d", seed))
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	tr := newTracker(tcpNodes)
	holds := holderOf(func(i int) *livenode.Node { return c.nodes[i] })
	poll := func() {
		now := since()
		for i, nd := range c.nodes {
			tr.pollChain(i, nd, now)
		}
		tr.pollReplicas(holds, now)
	}
	var measuring atomic.Bool // the window is open: sample the machine's speed
	measuring.Store(true)
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			poll()
			if measuring.Load() {
				ref.tick()
			}
			time.Sleep(time.Millisecond)
		}
	}()
	stopPoller := sync.OnceFunc(func() { close(stop); poller.Wait() })
	defer stopPoller()

	// Open loop: arrivals fire on the schedule whatever the cluster does;
	// latency runs from the due time and lateness is reported.
	stream, err := workload.NewStream(workload.StreamConfig{
		Duration:   load,
		RatePerMin: tcpRatePerSec * 60,
		NumNodes:   tcpNodes,
		Seed:       seed*10_000 + 1,
	})
	if err != nil {
		return nil, err
	}
	cpu0 := cpuTime(false)
	var ids []meta.DataID
	sent := make(map[meta.DataID]publication)
	var late []float64
	publishErrs := 0
	for k := 0; ; k++ {
		ev, ok := stream.Next()
		if !ok {
			break
		}
		if wait := ev.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		late = append(late, float64(time.Since(start)-ev.At)/1e6)
		producer := 1 + k%(tcpNodes-1)
		content := make([]byte, tcpPayload)
		copy(content, fmt.Sprintf("tcp-steady seed=%d seq=%08d", seed, k))
		t0 := time.Now()
		it, err := c.nodes[producer].Publish(content, ev.Type, "")
		if err != nil {
			publishErrs++
			continue
		}
		if rec != nil {
			rec.add("livenode.Publish", "wall", span, rec.wall(t0), rec.wall(time.Now()), it.ID.Short())
		}
		tr.published(it.ID, int64(ev.At))
		ids = append(ids, it.ID)
		sent[it.ID] = publication{producer, content, ev.Type}
	}

	// Drain: wait for a prefix that all eight nodes agree on and that holds
	// every item. With whole-second winning times and T0 = 1 s the nodes tie
	// at the tip most of the time, so tips are never compared: the agreed
	// prefix is the committed state, and it is also the canonical chain the
	// observations are resolved against.
	var canonical []*block.Block
	republished := 0
	lastRetry := time.Now() // the load has just ended: give the next blocks a chance first
	for deadline := time.Now().Add(tcpDrainMax); canonical == nil && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		chain, missing := agreedPrefix(c.nodes, ids)
		if len(missing) == 0 {
			canonical = chain
		} else if time.Since(lastRetry) > tcpRetryEvery {
			lastRetry = time.Now()
			for _, id := range missing {
				if p := sent[id]; onNoChain(c.nodes, id) {
					if _, err := c.nodes[p.producer].Publish(p.content, p.typ, ""); err == nil {
						republished++
					}
				}
			}
		}
	}
	// A second's grace for the storing nodes to pull their bytes (some never
	// do on this transport; that is reported, not waited for).
	if canonical != nil {
		type placement struct {
			id    meta.DataID
			nodes []int
		}
		var open []placement
		placed := make(map[meta.DataID]bool, len(ids))
		for _, b := range canonical[1:] {
			for _, it := range b.Items {
				if !placed[it.ID] {
					placed[it.ID] = true
					open = append(open, placement{it.ID, it.StoringNodes})
				}
			}
		}
		for deadline := time.Now().Add(time.Second); len(open) > 0 && time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
			keep := open[:0]
			for _, p := range open {
				for _, i := range p.nodes {
					if !c.nodes[i].HasData(p.id) {
						keep = append(keep, p)
						break
					}
				}
			}
			open = keep
		}
	}
	tr.pollReplicasNow(holds, since())
	window, cpu := time.Since(start), cpuTime(false)-cpu0
	sum := sumRegistries(c.regs)
	measuring.Store(false)
	rec.close(span)

	// Closed loop, one client: the next fetch starts when the last returned.
	type arrival struct {
		id meta.DataID
		ok bool
	}
	arrived := make(chan arrival, 16) // small slack: OnData must never block a reader goroutine
	client := c.nodes[tcpClient]
	client.SetOnData(func(id meta.DataID, content []byte) {
		select {
		case arrived <- arrival{id, meta.HashData(content) == id}:
		default:
		}
	})
	var fetchMs []float64
	fetches, fetchFailed := 0, 0
	for _, id := range ids {
		if fetches == tcpFetches {
			break
		}
		if client.HasData(id) {
			continue // the client is a storing node of this one
		}
		fetches++
		t0 := time.Now()
		client.RequestData(id)
		timeout := time.After(2 * time.Second)
	wait:
		for {
			select {
			case a := <-arrived:
				if a.id != id {
					continue
				}
				if a.ok {
					fetchMs = append(fetchMs, float64(time.Since(t0))/1e6)
					rec.add("livenode.RequestData", "wall", 0, rec.wall(t0), rec.wall(time.Now()), id.Short())
				} else {
					fetchFailed++
				}
				break wait
			case <-timeout:
				fetchFailed++
				break wait
			}
		}
	}

	stopPoller()
	if canonical == nil {
		out.fail("round seed %d: %v after the load the nodes still share no prefix that holds all %d items", seed, tcpDrainMax, len(ids))
		canonical = c.nodes[0].ChainSnapshot()
	}
	res := tr.resolve(canonical)
	out.attempted = len(ids) + publishErrs + fetches
	out.failed = publishErrs + fetchFailed
	out.republished = republished
	out.record(res, sum, cpu, ref, fetchMs, rec)
	out.settle()

	m["wall_s"] = window.Seconds()
	m["gini_storage"] = metrics.GiniInts(c.nodes[0].StorageUsed())
	sort.Float64s(late)
	m["workload.gen_late_p99_ms"] = percentile(late, 99)

	out.info["cpu_wire_fetch"] = fmt.Sprintf("%.3f ms/item %.3f KB/item %.4f ms, %d fork adoptions",
		m["cpu_ms_per_item"], m["wire_kb_per_item"], m["fetch_p50_ms"], sum.total["livenode.fork.adoptions"])
	out.info["items_committed"] = fmt.Sprint(res.committed)
	out.info["height"] = fmt.Sprint(len(canonical) - 1)
	out.canonical, out.accounts, out.used = canonical, c.accounts, c.nodes[0].StorageUsed()
	return out, nil
}

// runTCP runs the rounds and reports each metric's median over them.
func runTCP(seed int64, seconds int, rec *recorder) (*outcome, error) {
	load := time.Duration(seconds) * time.Second / tcpRounds
	out := newOutcome(tcpNodes, tcpT0)
	perRound := make(map[string][]float64)
	for k := 0; k < tcpRounds; k++ {
		round, err := tcpRound(seed+int64(k), load, rec)
		if err != nil {
			return nil, err
		}
		for name, v := range round.metrics {
			perRound[name] = append(perRound[name], v)
		}
		for key, v := range round.info {
			out.info[fmt.Sprintf("round%d.%s", k, key)] = v
		}
		out.attempted += round.attempted
		out.failed += round.failed
		out.republished += round.republished
		out.problems = append(out.problems, round.problems...)
		out.correct = out.correct && round.correct
		out.windowCPU += round.windowCPU
		out.committed += round.committed
		// The probes take their inputs from the last round.
		out.canonical, out.accounts, out.used = round.canonical, round.accounts, round.used
	}
	for name, v := range perRound {
		out.metrics[name] = median(v)
	}
	out.settle()
	return out, nil
}
