package netsim

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/geo"
)

// RadioConfig describes the paper's multi-hop radio field (Section VI).
type RadioConfig struct {
	// Field bounds mobility (paper: 300 m x 300 m).
	Field geo.Field
	// Placements are the nodes' home positions and mobility ranges; index
	// k is node k.
	Placements []geo.Placement
	// CommRange is the radio range in meters (paper: 70).
	CommRange float64
	// PerHopDelay is the propagation delay per hop (paper: 10 ms).
	PerHopDelay time.Duration
	// Bandwidth is the per-hop throughput in bytes per second, adding
	// size/Bandwidth of transmission delay per hop (4 MB/s approximates
	// effective 802.11n); zero adds none.
	Bandwidth float64
	// MobilityEpoch is how often Step is meant to run; zero keeps every
	// node at home.
	MobilityEpoch time.Duration
	// Seed drives the mobility steps.
	Seed int64
}

// Radio is the disc-radio hop model a transport carries frames over: two
// nodes share a link when they are within CommRange, a frame follows the
// shortest path and takes hops × (PerHopDelay + size/Bandwidth), and its
// bytes are billed to the sender only, the paper's end-to-end accounting
// (forwarders relay for free). Step moves every node
// inside its mobility disc and rebuilds the graph. Safe for concurrent use.
type Radio struct {
	mu   sync.Mutex
	cfg  RadioConfig
	home *Topology
	cur  *Topology
	rng  *rand.Rand // mobility steps
	tx   []uint64
}

// NewRadio builds the radio graph with every node at home.
func NewRadio(cfg RadioConfig) *Radio {
	home := NewTopology(HomePositions(cfg.Placements), cfg.CommRange)
	return &Radio{
		cfg:  cfg,
		home: home,
		cur:  home,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		tx:   make([]uint64, len(cfg.Placements)),
	}
}

// Home returns the graph over home positions. Placement plans on it: the
// Range-Distance Cost (eq. 2) covers short-term movement through its
// mobility terms, so a plan stays valid while the nodes wander.
func (r *Radio) Home() *Topology { return r.home }

// CommRange returns the radio range in meters.
func (r *Radio) CommRange() float64 { return r.cfg.CommRange }

// MobilityRange returns the nodes' mobility radius in meters (the
// placements share one).
func (r *Radio) MobilityRange() float64 {
	if len(r.cfg.Placements) == 0 {
		return 0
	}
	return r.cfg.Placements[0].Range
}

// MobilityEpoch returns how often Step is meant to run (0: never).
func (r *Radio) MobilityEpoch() time.Duration { return r.cfg.MobilityEpoch }

// Step moves every node to a uniformly random point of its mobility disc
// (clamped to the field), per Section VI ("mobility of the nodes is within
// 30 meter ranges"), and rebuilds the current graph.
func (r *Radio) Step() {
	pos := make([]geo.Point, len(r.cfg.Placements))
	for i, pl := range r.cfg.Placements {
		pos[i] = pl.RandomOffset(r.cfg.Field, r.rng)
	}
	topo := NewTopology(pos, r.cfg.CommRange)
	r.mu.Lock()
	r.cur = topo
	r.mu.Unlock()
}

// Hops returns the current hop count between nodes a and b (InfHops when
// no path joins them).
func (r *Radio) Hops(a, b int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur.Hops(NodeID(a), NodeID(b))
}

// Send times one frame of size bytes from a to b over the current graph
// and bills it to the sender. ok is false, and nothing is billed, when no
// path joins them.
func (r *Radio) Send(a, b, size int) (delay time.Duration, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.cur.Hops(NodeID(a), NodeID(b))
	if h == InfHops {
		return 0, false
	}
	r.tx[a] += uint64(size)
	perHop := r.cfg.PerHopDelay
	if r.cfg.Bandwidth > 0 {
		perHop += time.Duration(float64(size) / r.cfg.Bandwidth * float64(time.Second))
	}
	return time.Duration(h) * perHop, true
}

// Bytes returns a copy of the per-node transmitted byte counts.
func (r *Radio) Bytes() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.tx...)
}
