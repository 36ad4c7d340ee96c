package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/raft"
	"repro/internal/sim"
)

// System is one simulated edge-blockchain deployment: the network, the
// node processes, the workload and the measurement hooks.
type System struct {
	cfg   Config
	clock *sim.VClock
	rng   *rand.Rand
	net   *netsim.Network

	placements []geo.Placement
	idents     []*identity.Identity
	accounts   []identity.Address
	addrToNode map[identity.Address]int
	genesis    *block.Block
	// planner places data items (MinReplicas enforced); blockPlanner
	// places block bodies and recent-block assignments without a forced
	// replica floor — blocks are additionally covered by every node's
	// recent FIFO, so padding their replication only burns storage (at 10
	// nodes it saturates the 250-item capacity).
	planner      *alloc.Planner
	blockPlanner *alloc.Planner
	nodes        []*Node
	requesters   map[int]bool

	delivery *metrics.DeliverySamples
	stats    systemStats
	// wanted records which requesters the workload assigned to each item
	// ("data are requested randomly by 10 percent of nodes").
	wanted map[meta.DataID]map[int]bool

	mob     *netsim.Mobility
	dataSeq int

	sampleTypes []string
}

type systemStats struct {
	blocksMined      int
	blocksAdopted    int
	failedRequests   int
	failedFetches    int
	gapRecoveries    int
	forkReplacements int
	dataGenerated    int
	migrations       int
}

// NewSystem builds a deployment from the configuration. The same seed
// yields an identical run.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:        cfg,
		clock:      sim.NewVClock(time.Time{}),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		addrToNode: make(map[identity.Address]int, cfg.NumNodes),
		requesters: make(map[int]bool),
		wanted:     make(map[meta.DataID]map[int]bool),
		delivery:   &metrics.DeliverySamples{},
		sampleTypes: []string{
			"AirQuality/PM2.5", "Picture/Traffic", "Video/Clip",
			"Energy/Reading", "Road/Congestion",
		},
	}

	placements, err := geo.PlaceNodesConnected(cfg.Field, cfg.NumNodes, cfg.MobilityRange, cfg.CommRange, s.rng, 500)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.placements = placements
	s.net = netsim.New(s.clock, cfg.Field, placements, cfg.CommRange, cfg.Net, rand.New(rand.NewSource(cfg.Seed+1)))

	s.idents = make([]*identity.Identity, cfg.NumNodes)
	s.accounts = make([]identity.Address, cfg.NumNodes)
	keyRNG := rand.New(rand.NewSource(cfg.Seed + 2))
	for i := range s.idents {
		s.idents[i] = identity.GenerateSeeded(keyRNG)
		s.accounts[i] = s.idents[i].Address()
		s.addrToNode[s.accounts[i]] = i
	}
	s.genesis = block.Genesis(cfg.Seed)

	s.planner = alloc.NewPlanner(cfg.CommRange)
	if cfg.MinReplicas > 0 {
		s.planner.MinReplicas = cfg.MinReplicas
	}
	if cfg.Solver != nil {
		s.planner.Solve = cfg.Solver
	}
	s.blockPlanner = alloc.NewPlanner(cfg.CommRange)
	s.blockPlanner.MinReplicas = 1
	if cfg.Solver != nil {
		s.blockPlanner.Solve = cfg.Solver
	}

	s.nodes = make([]*Node, cfg.NumNodes)
	for i := range s.nodes {
		s.nodes[i] = newNode(s, i, s.idents[i], rand.New(rand.NewSource(cfg.Seed+10+int64(i))))
		s.net.Attach(netsim.NodeID(i), s.nodes[i])
	}

	// Requesters: 10% of nodes issue data requests (Section VI-A).
	want := int(float64(cfg.NumNodes)*cfg.RequesterFraction + 0.5)
	if want < 1 && cfg.RequesterFraction > 0 {
		want = 1
	}
	perm := s.rng.Perm(cfg.NumNodes)
	for _, id := range perm[:want] {
		s.requesters[id] = true
	}

	// Late joiners start disconnected.
	for id := range cfg.LateJoiners {
		if id >= 0 && id < cfg.NumNodes {
			s.nodes[id].joined = false
			s.net.SetDown(netsim.NodeID(id), true)
		}
	}

	if cfg.MobilityEpoch > 0 {
		s.mob = &netsim.Mobility{
			Field:      cfg.Field,
			Placements: placements,
			RNG:        rand.New(rand.NewSource(cfg.Seed + 3)),
		}
	}

	if cfg.EnableRaft {
		s.setupRaft()
	}
	return s, nil
}

// Clock exposes the virtual clock the whole deployment runs on. Virtual
// time is Clock().Elapsed(), counted from zero; examples and tests arm
// their scenario steps on it with AfterFunc before calling Run.
func (s *System) Clock() *sim.VClock { return s.clock }

// at arms fn for absolute virtual time t (now, if t has passed).
func (s *System) at(t time.Duration, fn func()) {
	s.clock.AfterFunc(t-s.clock.Elapsed(), fn)
}

// Network exposes the simulated network.
func (s *System) Network() *netsim.Network { return s.net }

// Node returns node i.
func (s *System) Node(i int) *Node { return s.nodes[i] }

// Requesters returns the IDs of requester nodes in no particular order.
func (s *System) Requesters() []int {
	out := make([]int, 0, len(s.requesters))
	for id := range s.requesters {
		out = append(out, id)
	}
	return out
}

type raftTransport struct {
	sys  *System
	from int
}

// Send implements raft.Transport over the simulated radio network.
func (t raftTransport) Send(to raft.NodeID, msg *raft.Message) {
	t.sys.net.Unicast(netsim.NodeID(t.from), netsim.NodeID(int(to)), msgRaft{rm: msg})
}

func (s *System) setupRaft() {
	hb := s.cfg.RaftHeartbeat
	if hb == 0 {
		hb = time.Second // edge-scale heartbeat, not datacenter-scale
	}
	ids := make([]raft.NodeID, s.cfg.NumNodes)
	for i := range ids {
		ids[i] = raft.NodeID(i)
	}
	for i, n := range s.nodes {
		peers := make([]raft.NodeID, 0, len(ids)-1)
		for _, p := range ids {
			if int(p) != i {
				peers = append(peers, p)
			}
		}
		n.attachRaft(raft.Config{
			ID:                 raft.NodeID(i),
			Peers:              peers,
			HeartbeatInterval:  hb,
			ElectionTimeoutMin: 4 * hb,
			ElectionTimeoutMax: 8 * hb,
			Transport:          raftTransport{sys: s, from: i},
			Clock:              s.clock,
			RNG:                rand.New(rand.NewSource(s.cfg.Seed + 100 + int64(i))),
		})
	}
	// The leader periodically proposes a network-view snapshot (the
	// "general information consensus" role Raft plays in the paper).
	sim.Every(s.clock, time.Minute, func() bool {
		for _, n := range s.nodes {
			if n.raft != nil && n.raft.State() == raft.Leader {
				n.raft.Propose(make([]byte, 128))
				break
			}
		}
		return true
	})
}

// Run executes the simulation for the given virtual duration: nothing can
// stop the clock short of the horizon.
func (s *System) Run(d time.Duration) {
	for _, n := range s.nodes {
		if n.joined {
			n.scheduleMining()
		}
	}
	if s.cfg.Trace != nil {
		s.scheduleTrace()
	} else {
		s.scheduleNextData()
	}
	if s.mob != nil && s.cfg.MobilityEpoch > 0 {
		sim.Every(s.clock, s.cfg.MobilityEpoch, func() bool {
			s.net.SetPositions(s.mob.Step())
			return true
		})
	}
	for id, at := range s.cfg.LateJoiners {
		id := id
		s.at(at, func() { s.nodes[id].join() })
	}
	s.clock.Advance(d)
}

// scheduleTrace schedules every event of the pre-generated workload trace.
func (s *System) scheduleTrace() {
	for _, ev := range s.cfg.Trace.Events {
		ev := ev
		s.at(ev.At, func() {
			if ev.Producer < 0 || ev.Producer >= s.cfg.NumNodes || !s.nodes[ev.Producer].joined {
				return
			}
			s.dataSeq++
			it := s.nodes[ev.Producer].produce(s.dataSeq, ev.Type)
			if len(ev.Requesters) > 0 {
				set := make(map[int]bool, len(ev.Requesters))
				for _, r := range ev.Requesters {
					set[r] = true
				}
				s.wanted[it.ID] = set
			}
			s.stats.dataGenerated++
		})
	}
}

// scheduleNextData arms the next data-production event with exponential
// interarrival at the configured network-wide rate.
func (s *System) scheduleNextData() {
	if s.cfg.DataRatePerMin <= 0 {
		return
	}
	meanGap := time.Duration(60.0 / s.cfg.DataRatePerMin * float64(time.Second))
	gap := time.Duration(s.rng.ExpFloat64() * float64(meanGap))
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	s.clock.AfterFunc(gap, func() {
		producer := s.pickProducer()
		if producer >= 0 {
			s.dataSeq++
			typ := s.sampleTypes[s.dataSeq%len(s.sampleTypes)]
			it := s.nodes[producer].produce(s.dataSeq, typ)
			s.assignRequesters(it, producer)
			s.stats.dataGenerated++
		}
		s.scheduleNextData()
	})
}

// assignRequesters draws the workload's consumers for one item from the
// requester pool.
func (s *System) assignRequesters(it *meta.Item, producer int) {
	want := s.cfg.RequestsPerItem
	if want <= 0 || len(s.requesters) == 0 {
		return
	}
	pool := make([]int, 0, len(s.requesters))
	for id := range s.requesters {
		if id != producer {
			pool = append(pool, id)
		}
	}
	sortInts(pool) // deterministic iteration before shuffling
	s.rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	if want > len(pool) {
		want = len(pool)
	}
	set := make(map[int]bool, want)
	for _, id := range pool[:want] {
		set[id] = true
	}
	s.wanted[it.ID] = set
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// wantedBy reports whether the workload assigned item id to requester node.
func (s *System) wantedBy(id meta.DataID, node int) bool {
	return s.wanted[id][node]
}

// ProduceData makes the given node produce one data item of the given type
// immediately and routes it through the normal metadata/placement flow.
// Examples use it to drive explicit scenarios instead of the random
// workload. Must be called from inside the simulation (via Clock
// scheduling) or before Run.
func (s *System) ProduceData(producer int, typ string) *meta.Item {
	s.dataSeq++
	it := s.nodes[producer].produce(s.dataSeq, typ)
	s.assignRequesters(it, producer)
	s.stats.dataGenerated++
	return it
}

// Identities returns the deployment's node identities (index = node ID).
// Differential tests reuse them to run a live cluster on the same roster.
func (s *System) Identities() []*identity.Identity { return s.idents }

// InjectItem feeds a pre-built, signed metadata item into producer's pool
// as if that node had produced it, and broadcasts the metadata. Must be
// called from inside the simulation (via Clock scheduling) or before Run.
func (s *System) InjectItem(producer int, it *meta.Item) {
	n := s.nodes[producer]
	n.ownData[it.ID] = true
	n.eng.AddLocal(it)
	s.net.Broadcast(netsim.NodeID(producer), msgMetadata{item: it})
}

// DeliverySamples returns the number of recorded data deliveries so far.
func (s *System) DeliveryCount() int { return s.delivery.Count() }

func (s *System) pickProducer() int {
	for attempts := 0; attempts < 10; attempts++ {
		id := s.rng.Intn(s.cfg.NumNodes)
		if s.nodes[id].joined {
			return id
		}
	}
	return -1
}

// Results summarizes a finished run; the fields map onto the paper's
// figures (see DESIGN.md experiment index).
type Results struct {
	// Config echo.
	NumNodes       int
	DataRatePerMin float64
	Placement      PlacementStrategy

	// Chain outcome.
	ChainHeight   uint64
	BlocksMined   int
	DataGenerated int

	// Fig. 4(a) / 5(b): per-node transmission overhead in bytes.
	AvgTxBytesPerNode float64
	TotalTxBytes      uint64
	PerNodeTxBytes    []uint64
	KindBytes         map[string]uint64

	// Fig. 4(b): storage fairness.
	StorageGini   float64
	StorageCounts []int

	// Fig. 4(c) / 5(a): data delivery time (seconds).
	Delivery       metrics.Summary
	FailedRequests int
	FailedFetches  int

	// Fig. 6 in-system: per-node energy in joules. Mining is hash work
	// (PoW) or target checks (PoS); radio charges every TX/RX byte.
	Consensus       ConsensusAlgo
	MiningEnergyJ   []float64
	RadioEnergyJ    []float64
	TotalEnergyJ    float64
	EnergyPerBlockJ float64

	// Robustness counters.
	GapRecoveries    int
	ForkReplacements int
	// Migrations counts executed data-migration re-placements (Section
	// VII future work; requires MigrateMaxPerBlock > 0).
	Migrations int
}

// Results collects the measurements after Run.
func (s *System) Results() *Results {
	st := s.net.Stats()
	height := uint64(0)
	for _, n := range s.nodes {
		if h := n.eng.Height(); h > height {
			height = h
		}
	}
	counts := make([]int, len(s.nodes))
	for i, n := range s.nodes {
		counts[i] = n.StoredItems()
	}
	kind := make(map[string]uint64, len(st.KindBytes))
	for k, v := range st.KindBytes {
		kind[k] = v
	}
	mining := make([]float64, len(s.nodes))
	radio := make([]float64, len(s.nodes))
	totalEnergy := 0.0
	for i, n := range s.nodes {
		mining[i] = n.miningEnergyJ
		radio[i] = s.cfg.RadioJPerByte * float64(st.TxBytes[i]+st.RxBytes[i])
		totalEnergy += mining[i] + radio[i]
	}
	perBlock := 0.0
	if height > 0 {
		perBlock = totalEnergy / float64(height)
	}
	return &Results{
		Consensus:         s.cfg.Consensus,
		MiningEnergyJ:     mining,
		RadioEnergyJ:      radio,
		TotalEnergyJ:      totalEnergy,
		EnergyPerBlockJ:   perBlock,
		NumNodes:          s.cfg.NumNodes,
		DataRatePerMin:    s.cfg.DataRatePerMin,
		Placement:         s.cfg.Placement,
		ChainHeight:       height,
		BlocksMined:       s.stats.blocksMined,
		DataGenerated:     s.stats.dataGenerated,
		AvgTxBytesPerNode: st.AvgTxBytesPerNode(),
		TotalTxBytes:      st.TotalTxBytes(),
		PerNodeTxBytes:    append([]uint64(nil), st.TxBytes...),
		KindBytes:         kind,
		StorageGini:       metrics.GiniInts(counts),
		StorageCounts:     counts,
		Delivery:          s.delivery.Summary(),
		FailedRequests:    s.stats.failedRequests,
		FailedFetches:     s.stats.failedFetches,
		GapRecoveries:     s.stats.gapRecoveries,
		ForkReplacements:  s.stats.forkReplacements,
		Migrations:        s.stats.migrations,
	}
}
