package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/block"
	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/livenode"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PlacementStrategy selects how storing nodes are chosen.
type PlacementStrategy int

// Placement strategies of the Fig. 5 comparison.
const (
	// PlaceOptimal is the paper's fair-and-efficient UFL placement.
	PlaceOptimal PlacementStrategy = iota
	// PlaceRandom stores each item on as many uniformly random non-full
	// nodes as the optimal placement would use (Section VI-B).
	PlaceRandom
)

// String implements fmt.Stringer.
func (s PlacementStrategy) String() string { return [...]string{"optimal", "random"}[s] }

// Config parametrizes one simulated deployment: live nodes
// (internal/livenode) on a chaos.Cluster over the paper's radio field, fed
// by the cluster's open-loop workload driver. DefaultConfig returns the
// paper's Section VI setup.
type Config struct {
	// NumNodes is the network size (paper: 10-50).
	NumNodes int
	// Field is the deployment area (paper: 300 m x 300 m).
	Field geo.Field
	// CommRange is the radio range in meters (paper: 70).
	CommRange float64
	// MobilityRange is each node's wander radius in meters (paper: 30).
	MobilityRange float64
	// MobilityEpoch is how often nodes move; zero keeps them at home.
	MobilityEpoch time.Duration
	// StorageCapacity is per-node storage in items (paper: 250).
	StorageCapacity int
	// DataSize is the size of one data item in bytes (paper: 1 MB).
	DataSize int
	// DataRatePerMin is the network-wide production rate (paper: 1-3); 0
	// leaves production to ProduceData.
	DataRatePerMin float64
	// RequesterFraction of nodes request data (paper: 10%); one of them
	// asks for each item, three block intervals after its production.
	RequesterFraction float64
	// T0 is the expected block interval (paper: 60 s).
	T0 time.Duration
	// Placement and FDCWeight (A of eq. 3; 0 means the paper's 1000)
	// select the engine rules of the paper's baselines and ablations.
	Placement PlacementStrategy
	FDCWeight float64
	// Stream, if set, edits the workload stream before it starts
	// (diurnal and burst arrivals, Zipf skew, logical users).
	Stream func(*workload.StreamConfig)
	// Seed drives the layout, the keys, the workload and the network.
	Seed int64
}

// DefaultConfig returns the paper's simulation parameters for n nodes.
func DefaultConfig(n int) Config {
	return Config{
		NumNodes:          n,
		Field:             geo.DefaultField(),
		CommRange:         70,
		MobilityRange:     30,
		MobilityEpoch:     30 * time.Second,
		StorageCapacity:   250,
		DataSize:          1 << 20,
		DataRatePerMin:    1,
		RequesterFraction: 0.10,
		T0:                pos.DefaultT0,
		Seed:              1,
	}
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.NumNodes < 1:
		return errors.New("experiments: NumNodes must be at least 1")
	case c.CommRange <= 0:
		return errors.New("experiments: CommRange must be positive")
	case c.StorageCapacity < 1:
		return errors.New("experiments: StorageCapacity must be at least 1")
	case c.DataSize <= 0:
		return errors.New("experiments: DataSize must be positive")
	case c.DataRatePerMin < 0:
		return errors.New("experiments: DataRatePerMin must be non-negative")
	case c.RequesterFraction < 0 || c.RequesterFraction > 1:
		return errors.New("experiments: RequesterFraction must be in [0, 1]")
	case c.T0 <= 0:
		return errors.New("experiments: T0 must be positive")
	case c.Placement != PlaceOptimal && c.Placement != PlaceRandom:
		return fmt.Errorf("experiments: unknown placement %d", c.Placement)
	}
	return nil
}

// rules is the engine-rule hook every node of the deployment applies.
func (c *Config) rules(e *engine.Config) {
	if c.FDCWeight > 0 {
		e.Planner.FDCWeight = c.FDCWeight
		e.BlockPlanner.FDCWeight = c.FDCWeight
	}
	if c.Placement == PlaceRandom {
		e.RandomPlacement = true
		e.Rand = rand.New(rand.NewSource(c.Seed + 10 + int64(e.Self)))
	}
}

// System is one simulated deployment.
type System struct {
	cfg   Config
	radio *netsim.Radio
	c     *chaos.Cluster
	wl    *chaos.WorkloadDriver
	seq   int // items produced by ProduceData
}

// NewSystem builds and connects a deployment. The same Config.Seed yields
// an identical run.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pls, err := netsim.PlaceConnected(cfg.Field, cfg.NumNodes, cfg.MobilityRange, cfg.CommRange, rng)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	s := &System{cfg: cfg}
	s.radio = netsim.NewRadio(netsim.RadioConfig{
		Field:         cfg.Field,
		Placements:    pls,
		CommRange:     cfg.CommRange,
		PerHopDelay:   10 * time.Millisecond,
		Bandwidth:     4 << 20,
		MobilityEpoch: cfg.MobilityEpoch,
		Seed:          cfg.Seed + 3,
	})
	s.c, err = chaos.NewCluster(chaos.Options{
		N:               cfg.NumNodes,
		Seed:            cfg.Seed,
		T0:              cfg.T0,
		StorageCapacity: cfg.StorageCapacity,
		Radio:           s.radio,
		Rules:           s.cfg.rules,
	})
	if err != nil {
		return nil, err
	}
	s.c.Net.SetRecording(false) // the digest still folds every event
	if err := s.c.ConnectAll(); err != nil {
		return nil, err
	}
	return s, nil
}

// Cluster exposes the node cluster: scenario scripts crash, restart and
// partition nodes through it.
func (s *System) Cluster() *chaos.Cluster { return s.c }

// Clock is the virtual clock the deployment runs on; scenario steps are
// armed on it with AfterFunc before Run.
func (s *System) Clock() *sim.VClock { return s.c.Clock }

// Radio is the radio field under the nodes.
func (s *System) Radio() *netsim.Radio { return s.radio }

// Node returns node i (nil while crashed).
func (s *System) Node(i int) *livenode.Node { return s.c.Node(i) }

// Run advances the deployment by d of virtual time. The first Run starts
// the workload, which spans that call.
func (s *System) Run(d time.Duration) {
	if s.wl == nil && (s.cfg.DataRatePerMin > 0 || s.cfg.Stream != nil) {
		sc := workload.StreamConfig{
			Duration:        d,
			RatePerMin:      s.cfg.DataRatePerMin,
			NumNodes:        s.cfg.NumNodes,
			Requesters:      workload.PickRequesterPool(s.cfg.NumNodes, s.cfg.RequesterFraction, rand.New(rand.NewSource(s.cfg.Seed+1000))),
			RequestsPerItem: 1,
			Seed:            s.cfg.Seed,
		}
		if s.cfg.Stream != nil {
			s.cfg.Stream(&sc)
		}
		wl, err := s.c.StartWorkload(chaos.WorkloadOptions{Stream: sc, ConsumerReads: true, PayloadBytes: s.cfg.DataSize})
		if err != nil {
			panic(fmt.Sprintf("experiments: workload: %v", err)) // the config was validated
		}
		s.wl = wl
	}
	s.c.Run(d)
}

// ProduceData publishes one item of the configured size on node producer,
// now. Examples script their scenarios with it.
func (s *System) ProduceData(producer int, typ string) (*meta.Item, error) {
	s.seq++
	content := make([]byte, s.cfg.DataSize)
	copy(content, fmt.Sprintf("item %d from node %d", s.seq, producer))
	return s.c.Node(producer).Publish(content, typ, fmt.Sprintf("node-%d", producer))
}

// FindMetadata searches node i's chain replica for items matching q ("the
// user can search what it demands", Section III-B1). A re-announced item
// appears once, in its latest version; the result is ordered by ID.
func (s *System) FindMetadata(i int, q meta.Query) []*meta.Item {
	var out []*meta.Item
	for _, it := range liveItems(s.c.Node(i).ChainSnapshot()) {
		if q.Matches(it) {
			out = append(out, it)
		}
	}
	slices.SortFunc(out, func(a, b *meta.Item) int { return slices.Compare(a.ID[:], b.ID[:]) })
	return out
}

// liveItems maps every item ID of a chain to its latest version.
func liveItems(chain []*block.Block) map[meta.DataID]*meta.Item {
	live := make(map[meta.DataID]*meta.Item)
	for _, b := range chain {
		for _, it := range b.Items {
			live[it.ID] = it
		}
	}
	return live
}

// Results summarizes a run; the fields map onto the paper's figures.
type Results struct {
	NumNodes       int
	DataRatePerMin float64
	Placement      PlacementStrategy

	// Chain outcome: the tallest replica's height and tip, the items
	// published, and how many of them reached that chain.
	ChainHeight   uint64
	Tip           block.Hash
	DataGenerated int
	OnChain       int

	// Fig. 4(a) / 5: per-node transmission over the radio, in bytes.
	AvgTxBytesPerNode float64
	TotalTxBytes      uint64

	// Fig. 4(b): storage per node as the chain assigns it, and its Gini.
	StorageCounts []int
	StorageGini   float64

	// Fig. 4(c) / 5: consumer reads served (livenode.data.read_ns) and
	// their mean in seconds; Requests counts the reads issued.
	Deliveries  int
	DeliverySec float64
	Requests    int

	// EventDigest and Events fingerprint the whole run (memnet's log).
	EventDigest uint64
	Events      uint64
}

// Results collects the measurements so far.
func (s *System) Results() *Results {
	r := &Results{
		NumNodes:       s.cfg.NumNodes,
		DataRatePerMin: s.cfg.DataRatePerMin,
		Placement:      s.cfg.Placement,
		DataGenerated:  s.seq,
		EventDigest:    s.c.Net.EventDigest(),
		Events:         s.c.Net.EventCount(),
	}
	if s.wl != nil {
		st := s.wl.Stats()
		r.DataGenerated += st.Published
		r.Requests = st.Requests
	}
	var tallest *livenode.Node
	var readNs float64
	for i := 0; i < s.cfg.NumNodes; i++ {
		h := s.c.NodeTelemetry(i).Snapshot().Histogram("livenode.data.read_ns")
		r.Deliveries += int(h.Count)
		readNs += h.Mean * float64(h.Count)
		if n := s.c.Node(i); n != nil && (tallest == nil || n.Height() > tallest.Height()) {
			tallest = n
		}
	}
	if r.Deliveries > 0 {
		r.DeliverySec = readNs / float64(r.Deliveries) / 1e9
	}
	tx := s.radio.Bytes()
	for i := range tx {
		r.TotalTxBytes += tx[i]
	}
	r.AvgTxBytesPerNode = float64(r.TotalTxBytes) / float64(len(tx))
	if tallest == nil {
		return r
	}
	chain := tallest.ChainSnapshot()
	tip := chain[len(chain)-1]
	r.ChainHeight, r.Tip = tip.Index, tip.Hash
	seen := make(map[meta.DataID]bool)
	for _, b := range chain {
		for _, it := range b.Items {
			seen[it.ID] = true
		}
	}
	r.OnChain = len(seen)
	r.StorageCounts = tallest.StorageUsed()
	r.StorageGini = metrics.GiniInts(r.StorageCounts)
	return r
}
