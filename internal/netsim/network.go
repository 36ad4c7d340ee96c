package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// Message is anything the network can carry. Size is the wire size in bytes
// and is used for both transmission-delay and overhead accounting. Kind is
// a short accounting category ("data", "block", "meta", "ctrl", ...).
type Message interface {
	Size() int
	Kind() string
}

// Handler receives messages delivered to a node. from is the original
// sender (not the last forwarder).
type Handler interface {
	Recv(from NodeID, msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(from NodeID, msg Message)

// Recv implements Handler.
func (f HandlerFunc) Recv(from NodeID, msg Message) { f(from, msg) }

// Config holds the network parameters. The defaults reproduce the paper's
// simulation setup (Section VI).
type Config struct {
	// PerHopDelay is the propagation delay per hop (paper: 10 ms).
	PerHopDelay time.Duration
	// Bandwidth is the effective per-hop link throughput in bytes/second,
	// adding size/Bandwidth of transmission delay per hop. Zero disables
	// transmission delay. The paper got this implicitly from Docker
	// sockets; 4 MB/s approximates effective 802.11n throughput.
	Bandwidth float64
	// DropProb drops each point-to-point delivery with this probability
	// (failure injection; default 0).
	DropProb float64
	// ChargeForwarding, when true, bills every intermediate hop of a
	// unicast for TX and RX bytes (radio-level accounting). When false
	// (default), only the endpoints are billed — matching the paper's
	// end-to-end transmission accounting ("total transmission is less
	// than 4GB" for ~1.5 GB of data). Latency is per-hop either way.
	ChargeForwarding bool
}

// DefaultConfig returns the paper's network parameters.
func DefaultConfig() Config {
	return Config{PerHopDelay: 10 * time.Millisecond, Bandwidth: 4 << 20}
}

// Stats aggregates per-node and per-kind traffic counters.
type Stats struct {
	TxBytes []uint64
	RxBytes []uint64
	TxMsgs  []uint64
	RxMsgs  []uint64
	// KindBytes counts bytes transmitted (single-hop transmissions, i.e.
	// including forwarding) per message kind.
	KindBytes map[string]uint64
	// Dropped counts messages lost to injected drops.
	Dropped uint64
	// Unreachable counts unicast attempts to disconnected destinations.
	Unreachable uint64
}

func newStats(n int) *Stats {
	return &Stats{
		TxBytes:   make([]uint64, n),
		RxBytes:   make([]uint64, n),
		TxMsgs:    make([]uint64, n),
		RxMsgs:    make([]uint64, n),
		KindBytes: make(map[string]uint64),
	}
}

// TotalTxBytes sums transmitted bytes over all nodes.
func (s *Stats) TotalTxBytes() uint64 {
	var sum uint64
	for _, b := range s.TxBytes {
		sum += b
	}
	return sum
}

// AvgTxBytesPerNode is the mean per-node transmission overhead, the metric
// of Fig. 4(a) / Fig. 5(b).
func (s *Stats) AvgTxBytesPerNode() float64 {
	if len(s.TxBytes) == 0 {
		return 0
	}
	return float64(s.TotalTxBytes()) / float64(len(s.TxBytes))
}

// Network delivers messages between nodes over the simulated radio graph.
// It is single-threaded: all calls must happen on the simulation goroutine.
type Network struct {
	clock     sim.Clock
	cfg       Config
	placement []geo.Placement
	field     geo.Field
	commRange float64
	positions []geo.Point
	down      []bool
	topo      *Topology
	// homeTopo is the radio graph over home positions. The RDC cost model
	// (eq. 2) plans on home positions plus mobility ranges — "nodes move
	// within such a range in a short period of time" — so placement stays
	// meaningful while the live topology wobbles with mobility.
	homeTopo *Topology
	handlers []Handler
	rng      *rand.Rand
	stats    *Stats
	// linkBlocked, if set, severs the link between two nodes regardless of
	// distance (partition injection).
	linkBlocked func(a, b NodeID) bool
}

// New creates a network over the given placements; every delivery is a
// timer on clock. Handlers are registered later with Attach; messages to nodes without a handler are dropped
// silently (counted as received).
func New(clock sim.Clock, field geo.Field, placements []geo.Placement, commRange float64, cfg Config, rng *rand.Rand) *Network {
	n := len(placements)
	nw := &Network{
		clock:     clock,
		cfg:       cfg,
		placement: append([]geo.Placement(nil), placements...),
		field:     field,
		commRange: commRange,
		positions: HomePositions(placements),
		down:      make([]bool, n),
		handlers:  make([]Handler, n),
		rng:       rng,
		stats:     newStats(n),
	}
	nw.rebuild()
	return nw
}

// N returns the node count.
func (nw *Network) N() int { return len(nw.placement) }

// Attach registers the handler for node id.
func (nw *Network) Attach(id NodeID, h Handler) { nw.handlers[id] = h }

// Topology returns the current radio graph.
func (nw *Network) Topology() *Topology { return nw.topo }

// HomeTopology returns the radio graph over home positions (mobility
// centers), used by the RDC placement cost model. It tracks up/down state
// but not short-term movement.
func (nw *Network) HomeTopology() *Topology { return nw.homeTopo }

// Stats returns the live traffic counters.
func (nw *Network) Stats() *Stats { return nw.stats }

// Placements returns the node placements (home + mobility range).
func (nw *Network) Placements() []geo.Placement { return nw.placement }

// SetPositions moves nodes and rebuilds the topology.
func (nw *Network) SetPositions(pos []geo.Point) {
	if len(pos) != nw.N() {
		panic(fmt.Sprintf("netsim: SetPositions with %d positions for %d nodes", len(pos), nw.N()))
	}
	copy(nw.positions, pos)
	nw.rebuild()
}

// SetDown marks a node as down (disconnected) or up and rebuilds the
// topology. Down nodes neither receive nor forward.
func (nw *Network) SetDown(id NodeID, down bool) {
	if nw.down[id] == down {
		return
	}
	nw.down[id] = down
	nw.rebuild()
}

// Down reports whether node id is currently down.
func (nw *Network) Down(id NodeID) bool { return nw.down[id] }

// SetLinkFilter installs (or clears, with nil) a partition filter: links for
// which blocked returns true are severed.
func (nw *Network) SetLinkFilter(blocked func(a, b NodeID) bool) {
	nw.linkBlocked = blocked
	nw.rebuild()
}

func (nw *Network) rebuild() {
	nw.topo = nw.buildTopo(nw.positions)
	nw.homeTopo = nw.buildTopo(HomePositions(nw.placement))
}

func (nw *Network) buildTopo(positions []geo.Point) *Topology {
	topo := NewTopology(positions, nw.commRange, nw.down)
	if nw.linkBlocked != nil {
		// Remove blocked links, then recompute routes.
		for u := range topo.adj {
			kept := topo.adj[u][:0]
			for _, v := range topo.adj[u] {
				if !nw.linkBlocked(NodeID(u), v) {
					kept = append(kept, v)
				}
			}
			topo.adj[u] = kept
		}
		topo.computeRoutes(nw.down)
	}
	return topo
}

// hopDelay returns the per-hop latency for a message of the given size.
func (nw *Network) hopDelay(size int) time.Duration {
	d := nw.cfg.PerHopDelay
	if nw.cfg.Bandwidth > 0 {
		d += time.Duration(float64(size) / nw.cfg.Bandwidth * float64(time.Second))
	}
	return d
}

// Unicast sends msg from -> to along a shortest path. Every forwarding node
// is charged TX bytes and every node past the first hop RX bytes. The
// handler at to fires after hops * hopDelay. It reports whether the message
// was deliverable when sent (destination reachable, not dropped).
func (nw *Network) Unicast(from, to NodeID, msg Message) bool {
	if from == to {
		// Local delivery: free and immediate (next event cycle).
		nw.clock.AfterFunc(0, func() { nw.deliver(from, to, msg) })
		return true
	}
	if nw.down[from] || nw.down[to] || !nw.topo.Reachable(from, to) {
		nw.stats.Unreachable++
		return false
	}
	if nw.cfg.DropProb > 0 && nw.rng.Float64() < nw.cfg.DropProb {
		nw.stats.Dropped++
		return false
	}
	hops := nw.topo.Hops(from, to)
	size := uint64(msg.Size())
	if nw.cfg.ChargeForwarding {
		// Radio-level accounting: path nodes v0..vh; v0..v(h-1) transmit,
		// v1..vh receive.
		cur := from
		for cur != to {
			next := nw.topo.NextHop(cur, to)
			if next < 0 {
				nw.stats.Unreachable++
				return false
			}
			nw.stats.TxBytes[cur] += size
			nw.stats.TxMsgs[cur]++
			nw.stats.RxBytes[next] += size
			nw.stats.RxMsgs[next]++
			nw.stats.KindBytes[msg.Kind()] += size
			cur = next
		}
	} else {
		// End-to-end accounting (the paper's): bill only the endpoints.
		nw.stats.TxBytes[from] += size
		nw.stats.TxMsgs[from]++
		nw.stats.RxBytes[to] += size
		nw.stats.RxMsgs[to]++
		nw.stats.KindBytes[msg.Kind()] += size
	}
	delay := time.Duration(hops) * nw.hopDelay(msg.Size())
	nw.clock.AfterFunc(delay, func() { nw.deliver(from, to, msg) })
	return true
}

// Broadcast floods msg from the source across its connected component.
// Every reached node retransmits once (classic flooding), so every reached
// node is charged one TX and one RX of the message size; node at hop
// distance d receives after d * hopDelay. The source's own handler does not
// fire.
func (nw *Network) Broadcast(from NodeID, msg Message) {
	if nw.down[from] {
		return
	}
	size := uint64(msg.Size())
	nw.stats.TxBytes[from] += size
	nw.stats.TxMsgs[from]++
	nw.stats.KindBytes[msg.Kind()] += size
	hd := nw.hopDelay(msg.Size())
	for id := 0; id < nw.N(); id++ {
		id := NodeID(id)
		if id == from || nw.down[id] || !nw.topo.Reachable(from, id) {
			continue
		}
		if nw.cfg.DropProb > 0 && nw.rng.Float64() < nw.cfg.DropProb {
			nw.stats.Dropped++
			continue
		}
		h := nw.topo.Hops(from, id)
		nw.stats.RxBytes[id] += size
		nw.stats.RxMsgs[id]++
		// Each reached node rebroadcasts once in a flood.
		nw.stats.TxBytes[id] += size
		nw.stats.TxMsgs[id]++
		nw.stats.KindBytes[msg.Kind()] += size
		nw.clock.AfterFunc(time.Duration(h)*hd, func() { nw.deliver(from, id, msg) })
	}
}

func (nw *Network) deliver(from, to NodeID, msg Message) {
	if nw.down[to] {
		return
	}
	if h := nw.handlers[to]; h != nil {
		h.Recv(from, msg)
	}
}
