package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	edgechain "repro"
	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/ufl"
	"repro/internal/workload"
)

// Probes are direct timed calls to one layer's public functions on inputs
// taken from the run just finished: its canonical chain's median- and
// maximum-size blocks, its items, its roster size and storage state. Each
// reports the median time of one call.

const (
	probeIters    = 200
	probeBudget   = 250 * time.Millisecond // a slow probe stops early, after at least probeMinIters
	probeMinIters = 20
)

// probe times fn probeIters times (fewer if the budget runs out) and
// returns the median nanoseconds per call. batch > 1 times that many calls
// at once, for calls too short for the clock.
func probe(batch int, fn func()) float64 {
	samples := make([]float64, 0, probeIters)
	began := time.Now()
	for i := 0; i < probeIters; i++ {
		t0 := time.Now()
		for k := 0; k < batch; k++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
		if i+1 >= probeMinIters && time.Since(began) > probeBudget {
			break
		}
	}
	return median(samples)
}

// probeEach times one call per input, with untimed preparation, and returns
// the median nanoseconds. prepare returns the call to time.
func probeEach(n int, prepare func(i int) func()) float64 {
	samples := make([]float64, 0, n)
	began := time.Now()
	for i := 0; i < n; i++ {
		fn := prepare(i)
		t0 := time.Now()
		fn()
		samples = append(samples, float64(time.Since(t0)))
		if i+1 >= probeMinIters && time.Since(began) > 2*probeBudget {
			break
		}
	}
	return median(samples)
}

var sink int // keeps probed results alive

type probeInputs struct {
	n         int
	canonical []*block.Block
	accounts  []identity.Address
	used      []int
	params    pos.Params
	items     []*meta.Item // first on-chain occurrence of every item
	p50, max  *block.Block // by item count
}

func newProbeInputs(o *outcome) (*probeInputs, error) {
	in := &probeInputs{n: o.n, canonical: o.canonical, accounts: o.accounts, used: o.used,
		params: pos.Params{M: pos.DefaultM, T0: o.t0}}
	if len(in.canonical) < 3 {
		return nil, fmt.Errorf("probes: canonical chain of %d blocks is too short", len(in.canonical))
	}
	seen := make(map[meta.DataID]bool)
	bySize := append([]*block.Block(nil), in.canonical[1:]...)
	for _, b := range bySize {
		for _, it := range b.Items {
			if !seen[it.ID] {
				seen[it.ID] = true
				in.items = append(in.items, it)
			}
		}
	}
	if len(in.items) == 0 {
		return nil, fmt.Errorf("probes: no items on the canonical chain")
	}
	sort.SliceStable(bySize, func(a, b int) bool { return len(bySize[a].Items) < len(bySize[b].Items) })
	in.p50, in.max = bySize[len(bySize)/2], bySize[len(bySize)-1]
	return in, nil
}

// newEngine builds an engine the way livenode does, at genesis.
func (in *probeInputs) newEngine(self int, now func() time.Duration) (*engine.Engine, error) {
	topo := netsim.NewClique(in.n)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	return engine.New(engine.Config{
		Accounts:           in.accounts,
		Self:               self,
		PoS:                in.params,
		Genesis:            in.canonical[0],
		Now:                now,
		ValidateClaims:     true,
		Topology:           func() *netsim.Topology { return topo },
		Planner:            alloc.NewPlanner(1),
		BlockPlanner:       blockPlanner,
		StorageCapacity:    simCapacity,
		InitialRecentDepth: 1,
		SnapshotInterval:   32,
		VerifyWorkers:      4,
	})
}

// mineProbe times engine.Mine over a pool of the given size.
func (in *probeInputs) mineProbe(pool int) (float64, error) {
	if pool > len(in.items) {
		pool = len(in.items)
	}
	var failure error
	ns := probeEach(probeIters, func(int) func() {
		var now time.Duration
		e, err := in.newEngine(0, func() time.Duration { return now })
		if err != nil {
			failure = err
			return func() {}
		}
		for _, it := range in.items[:pool] {
			unplaced := it.Clone()
			unplaced.StoringNodes = nil
			e.AddLocal(unplaced)
		}
		round, ok := e.NextRound()
		if !ok {
			failure = fmt.Errorf("probes: node 0 cannot mine on genesis")
			return func() {}
		}
		now = round.FireAt()
		return func() {
			res, err := e.Mine(round)
			if err != nil || res == nil {
				failure = fmt.Errorf("probes: Mine: %v", err)
				return
			}
			sink += len(res.Block.Items)
		}
	})
	return ns, failure
}

// runProbes fills the probe metrics. tcp selects the p2p probe, disk the
// store probes (tmp is where they may write).
func runProbes(o *outcome, tcp, disk bool, tmp string) error {
	in, err := newProbeInputs(o)
	if err != nil {
		return err
	}
	m := o.metrics
	us := func(ns float64) float64 { return ns / 1e3 }
	far := func() time.Duration { return 1000 * time.Hour }

	// workload: one Next of a stream shaped like the sim workloads'.
	stream, err := workload.NewStream(workload.StreamConfig{
		Duration: 1000 * time.Hour, RatePerMin: 120, NumNodes: in.n, TypeZipfS: 1.1,
		Users: 1_000_000, UserZipfS: 1.2, SessionEpoch: 45 * time.Second, Seed: 1,
	})
	if err != nil {
		return err
	}
	m["workload.next_ns"] = probe(64, func() { ev, _ := stream.Next(); sink += ev.Producer })

	// livenode: a one-node cluster with no peers is the single-node baseline.
	solo, err := soloCPUPerItem()
	if err != nil {
		return err
	}
	m["livenode.solo_cpu_ms_per_item"] = solo

	if tcp {
		rtt, err := loopRTT()
		if err != nil {
			return err
		}
		m["p2p.loop_rtt_us"] = us(rtt)
	}

	// memnet: one send and its delivery on an instant link.
	clock := chaos.NewVClock(time.Unix(1700000000, 0))
	net := memnet.New(1, clock.Now)
	net.SetRecording(false)
	recv := p2p.HandlerFunc(func(string, byte, []byte) { sink++ })
	a, err := net.Listen("a", recv)
	if err != nil {
		return err
	}
	if _, err := net.Listen("b", recv); err != nil {
		return err
	}
	if err := a.Connect("b"); err != nil {
		return err
	}
	payload := make([]byte, 1024)
	m["memnet.deliver_ns"] = probe(16, func() {
		_ = a.Send("b", p2p.FrameData, payload)
		net.DeliverNext()
	})

	// chaos: arm one timer and advance the clock over it.
	m["chaos.timer_ns"] = probe(16, func() {
		clock.AfterFunc(time.Millisecond, func() { sink++ })
		clock.AdvanceTo(clock.Now().Add(time.Millisecond))
	})

	// meta and identity: one item of the run.
	rng := rand.New(rand.NewSource(1))
	ident := identity.GenerateSeeded(rng)
	item := in.items[len(in.items)/2].Clone()
	m["meta.sign_us"] = us(probe(1, func() { item.Sign(ident) }))
	m["meta.verify_us"] = us(probe(1, func() {
		if item.Verify() != nil {
			sink++
		}
	}))
	encoded := item.Encode()
	m["meta.encode_ns"] = probe(16, func() { sink += len(item.Encode()) })
	m["meta.decode_ns"] = probe(16, func() {
		if it, err := meta.Decode(encoded); err == nil {
			sink += it.DataSize
		}
	})

	// block: the run's median- and maximum-size blocks.
	for _, bp := range []struct {
		suffix string
		b      *block.Block
	}{{"p50", in.p50}, {"max", in.max}} {
		b := bp.b.Clone()
		wire := b.Encode()
		m["block.seal_us_"+bp.suffix] = us(probe(1, b.Seal))
		m["block.verify_self_us_"+bp.suffix] = us(probe(1, func() {
			if b.VerifySelf() != nil {
				sink++
			}
		}))
		m["block.encode_us_"+bp.suffix] = us(probe(1, func() { sink += len(b.Encode()) }))
		m["block.decode_us_"+bp.suffix] = us(probe(1, func() {
			if d, err := block.Decode(wire); err == nil {
				sink += len(d.Items)
			}
		}))
	}
	m["block.bytes_max"] = float64(in.max.EncodedSize())

	// pos at the workload's roster size: the last block's claim against the
	// ledger as of its parent.
	params := in.params
	last := len(in.canonical) - 1
	prev, tip := in.canonical[last-1], in.canonical[last]
	ledger := pos.NewLedger(in.accounts)
	if err := ledger.Rebuild(in.canonical[:last]); err != nil {
		return fmt.Errorf("probes: ledger rebuild: %w", err)
	}
	m["pos.hit_ns"] = probe(16, func() { sink += int(params.Hit(prev, in.accounts[0]) & 1) })
	if err := params.ValidateClaim(prev, tip, ledger); err != nil {
		return fmt.Errorf("probes: canonical tip fails claim validation: %w", err)
	}
	m["pos.validate_claim_us"] = us(probe(1, func() {
		if params.ValidateClaim(prev, tip, ledger) != nil {
			sink++
		}
	}))
	scratch := pos.NewLedger(in.accounts)
	m["pos.ledger_apply_us"] = us(probe(1, func() {
		if scratch.Rebuild(in.canonical) != nil {
			sink++
		}
	})) / float64(last)

	// alloc and ufl on the end-of-run storage state.
	states := make([]alloc.NodeState, in.n)
	for i := range states {
		states[i] = alloc.NodeState{Used: in.used[i], Capacity: simCapacity}
	}
	topo := netsim.NewClique(in.n)
	planner := alloc.NewPlanner(1)
	m["alloc.place_us"] = us(probe(1, func() {
		if pl, err := planner.Place(topo, states); err == nil {
			sink += len(pl.StoringNodes)
		}
	}))
	instance := planner.BuildInstance(topo, states)
	m["ufl.greedy_us"] = us(probe(1, func() {
		if sol, err := ufl.Greedy(instance); err == nil {
			sink += len(sol.Open)
		}
	}))

	// engine.
	ns, err := in.mineProbe(len(in.max.Items))
	if err != nil {
		return err
	}
	m["engine.mine_ms_at_max_pool"] = ns / 1e6
	if ns, err = in.mineProbe(max(1, len(in.p50.Items))); err != nil {
		return err
	}
	m["engine.mine_ms_at_p50_pool"] = ns / 1e6
	e, err := in.newEngine(0, far)
	if err != nil {
		return err
	}
	pooled := in.items[:min(len(in.items), probeIters)]
	m["engine.add_metadata_us"] = us(probeEach(len(pooled), func(i int) func() {
		return func() {
			if e.AddMetadata(pooled[i]) {
				sink++
			}
		}
	}))
	if e, err = in.newEngine(0, far); err != nil {
		return err
	}
	var receiveErr error
	m["engine.receive_block_us"] = us(probeEach(last, func(i int) func() {
		return func() {
			if _, err := e.ReceiveBlock(in.canonical[i+1]); err != nil {
				receiveErr = err
			}
		}
	}))
	if receiveErr != nil {
		return fmt.Errorf("probes: ReceiveBlock on the canonical chain: %w", receiveErr)
	}
	adoptNs := probeEach(probeMinIters, func(int) func() {
		fresh, err := in.newEngine(0, far)
		if err != nil {
			return func() {}
		}
		return func() {
			if _, ok := fresh.AdoptSuffix(in.canonical[1:]); ok {
				sink++
			}
		}
	})
	m["engine.adopt_suffix_blocks_per_s"] = float64(last) / (adoptNs / 1e9)

	// chain without the engine's hooks: structure and content only.
	ch := chain.New(in.canonical[0])
	var addErr error
	m["chain.add_us"] = us(probeEach(last, func(i int) func() {
		return func() {
			if _, err := ch.Add(in.canonical[i+1]); err != nil {
				addErr = err
			}
		}
	}))
	if addErr != nil {
		return fmt.Errorf("probes: chain.Add: %w", addErr)
	}
	m["chain.locator_us"] = us(probe(1, func() { sink += len(ch.Locator()) }))

	// repair: the provider index over the run's chain.
	idx := repair.NewIndex(in.n)
	m["repair.index_apply_us"] = us(probe(1, func() { idx.Rebuild(in.canonical) })) / float64(last)
	dead := func(i int) bool { return i%8 == 1 }
	m["repair.deficits_us"] = us(probe(1, func() { sink += len(idx.Deficits(tip.Timestamp, replicaFloor, dead)) }))

	// telemetry: one counter increment.
	counter := telemetry.NewRegistry().Counter("probe")
	m["telemetry.counter_ns"] = probe(256, counter.Inc)

	if disk {
		if err := storeProbes(in, m, tmp); err != nil {
			return err
		}
	}

	// The figure stack (core + sim + netsim + raft), through the root package
	// only, once: ten virtual minutes of the paper's 30-node simulation.
	t0 := time.Now()
	if _, err := edgechain.RunSimulation(edgechain.DefaultConfig(30), 10*time.Minute); err != nil {
		return fmt.Errorf("probes: RunSimulation: %w", err)
	}
	m["core.sim_vmin_per_s"] = 10 / time.Since(t0).Seconds()
	return nil
}

// soloCPUPerItem publishes 200 items over 30 virtual seconds on a one-node
// cluster and returns the process CPU per item in milliseconds.
func soloCPUPerItem() (float64, error) {
	c, err := chaos.NewCluster(chaos.Options{N: 1, Seed: 1, T0: simT0, StorageCapacity: simCapacity})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	const items = 200
	cpu0 := cpuTime(false)
	for k := 0; k < items; k++ {
		content := make([]byte, simPayload)
		copy(content, fmt.Sprintf("solo %08d", k))
		if _, err := c.Node(0).Publish(content, "Energy/Reading", ""); err != nil {
			return 0, err
		}
		c.Run(150 * time.Millisecond)
	}
	c.Run(3 * simT0)
	cpu := cpuTime(false) - cpu0
	if len(c.Node(0).PoolIDs()) != 0 {
		return 0, fmt.Errorf("probes: solo node left items unpacked")
	}
	return float64(cpu) / 1e6 / items, nil
}

// loopRTT is a 1 KiB ping-pong between two p2p nodes on loopback: median
// round trip in nanoseconds.
func loopRTT() (float64, error) {
	pong := make(chan struct{}, 1)
	var server *p2p.Node
	server, err := p2p.Listen("127.0.0.1:0", p2p.HandlerFunc(func(from string, ft byte, payload []byte) {
		_ = server.Send(from, ft, payload)
	}))
	if err != nil {
		return 0, err
	}
	defer server.Close()
	client, err := p2p.Listen("127.0.0.1:0", p2p.HandlerFunc(func(string, byte, []byte) { pong <- struct{}{} }))
	if err != nil {
		return 0, err
	}
	defer client.Close()
	if err := client.Connect(server.Addr()); err != nil {
		return 0, err
	}
	time.Sleep(50 * time.Millisecond) // hello handshake, as livenode.Connect allows
	payload := make([]byte, 1024)
	var failure error
	ns := probe(1, func() {
		if err := client.Send(server.Addr(), p2p.FrameData, payload); err != nil {
			failure = err
			return
		}
		select {
		case <-pong:
		case <-time.After(time.Second):
			failure = fmt.Errorf("probes: p2p ping-pong timed out")
		}
	})
	return ns, failure
}

// storeProbes times the disk layer: WAL append under each fsync policy,
// data put/get and WAL recovery. Disk timings are reported, never gated.
func storeProbes(in *probeInputs, m map[string]float64, tmp string) error {
	us := func(ns float64) float64 { return ns / 1e3 }
	for _, pol := range []struct {
		name string
		sync store.SyncPolicy
	}{{"none", store.SyncNone}, {"batch", store.SyncBatch}, {"always", store.SyncAlways}} {
		dir := filepath.Join(tmp, "probe-wal-"+pol.name)
		s, err := store.Open(dir, store.Options{Sync: pol.sync})
		if err != nil {
			return err
		}
		// A WAL takes blocks in chain order: append the run's chain, starting
		// over (untimed) when it runs out.
		next := 1
		var appendErr error
		m["store.wal_append_us_"+pol.name] = us(probeEach(probeIters, func(int) func() {
			if next == len(in.canonical) {
				if err := s.ResetChain(nil); err != nil {
					appendErr = err
				}
				next = 1
			}
			b := in.canonical[next]
			next++
			return func() {
				if err := s.AppendBlock(b); err != nil {
					appendErr = err
				}
			}
		}))
		if err := s.Close(); err != nil {
			return err
		}
		if appendErr != nil {
			return fmt.Errorf("probes: WAL append (%s): %w", pol.name, appendErr)
		}
	}

	s, err := store.Open(filepath.Join(tmp, "probe-data"), store.Options{})
	if err != nil {
		return err
	}
	contents := make([][]byte, probeIters)
	ids := make([]meta.DataID, probeIters)
	for i := range contents {
		contents[i] = make([]byte, simPayload)
		copy(contents[i], fmt.Sprintf("probe item %08d", i))
		ids[i] = meta.HashData(contents[i])
	}
	var putErr error
	m["store.data_put_us"] = us(probeEach(probeIters, func(i int) func() {
		return func() {
			if err := s.PutData(ids[i], contents[i]); err != nil {
				putErr = err
			}
		}
	}))
	if putErr != nil {
		return fmt.Errorf("probes: PutData: %w", putErr)
	}
	m["store.data_get_hit_us"] = us(probe(1, func() {
		if c, ok := s.GetData(ids[0]); ok {
			sink += len(c)
		}
	}))
	if err := s.Close(); err != nil {
		return err
	}

	// Recovery: write the run's chain, close, reopen.
	dir := filepath.Join(tmp, "probe-recover")
	w, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		return err
	}
	for _, b := range in.canonical[1:] {
		if err := w.AppendBlock(b); err != nil {
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	recovered := 0
	ns := probeEach(probeMinIters, func(int) func() {
		return func() {
			r, err := store.Open(dir, store.Options{Sync: store.SyncNone})
			if err != nil {
				return
			}
			recovered = len(r.RecoveredBlocks())
			_ = r.Close()
		}
	})
	if recovered != len(in.canonical)-1 {
		return fmt.Errorf("probes: recovered %d of %d blocks", recovered, len(in.canonical)-1)
	}
	m["store.recover_blocks_per_s"] = float64(recovered) / (ns / 1e9)
	return nil
}
