// Package netsim models the multi-hop wireless network connecting edge
// devices.
//
// Nodes are placed by package geo; any two nodes within the radio range
// (70 m in the paper, typical 802.11n) share a link. Topology holds the
// radio graph's shortest hop counts, the distance the Range-Distance Cost
// (eq. 2) is counted in. Radio (radio.go) is the hop model an in-memory
// transport delivers frames over: a fixed per-hop delay (10 ms in the
// paper), per-hop transmission time, mobility epochs, and every frame's
// bytes billed to its sender and receiver so the evaluation can report
// per-node transmission overhead as in Section VI-A.
package netsim

import (
	"math"
	"math/rand"

	"repro/internal/geo"
)

// NodeID identifies a node; IDs are dense indices assigned at placement.
type NodeID int

// InfHops marks unreachable node pairs in hop-count queries.
const InfHops = math.MaxInt32

// Topology is the radio graph over current node positions. It is rebuilt
// whenever nodes move or change up/down state.
type Topology struct {
	positions []geo.Point
	commRange float64
	clique    bool // all-pairs 1 hop; adj/hops/next stay nil
	adj       [][]NodeID
	hops      [][]int32  // all-pairs hop counts; InfHops if unreachable
	next      [][]NodeID // next[u][v]: first hop from u toward v, -1 if none
}

// NewClique returns the all-pairs-one-hop topology of a full TCP overlay
// mesh: every distinct pair is one hop apart and always reachable. Unlike
// NewTopology it materializes no adjacency or route tables, so building
// one is O(n) in memory and O(1) in route work — a position-based clique
// costs O(n²) memory and O(n³) BFS time, which at 1000 nodes is gigabytes
// and minutes PER NODE STACK that holds one. Down state is not modeled;
// overlay deployments track liveness above the transport.
func NewClique(n int) *Topology {
	return &Topology{positions: make([]geo.Point, n), commRange: 1, clique: true}
}

// NewTopology builds the radio graph for the given positions and range.
// down[i], if non-nil and true, removes node i from the graph entirely.
func NewTopology(positions []geo.Point, commRange float64, down []bool) *Topology {
	n := len(positions)
	t := &Topology{
		positions: append([]geo.Point(nil), positions...),
		commRange: commRange,
		adj:       make([][]NodeID, n),
	}
	for i := 0; i < n; i++ {
		if isDown(down, i) {
			continue
		}
		for j := i + 1; j < n; j++ {
			if isDown(down, j) {
				continue
			}
			if geo.Dist(positions[i], positions[j]) <= commRange {
				t.adj[i] = append(t.adj[i], NodeID(j))
				t.adj[j] = append(t.adj[j], NodeID(i))
			}
		}
	}
	t.computeRoutes(down)
	return t
}

func isDown(down []bool, i int) bool { return down != nil && down[i] }

// computeRoutes fills the hop-count matrix and next-hop table with one BFS
// per node.
func (t *Topology) computeRoutes(down []bool) {
	n := len(t.positions)
	t.hops = make([][]int32, n)
	t.next = make([][]NodeID, n)
	queue := make([]NodeID, 0, n)
	for s := 0; s < n; s++ {
		h := make([]int32, n)
		nx := make([]NodeID, n)
		for i := range h {
			h[i] = InfHops
			nx[i] = -1
		}
		t.hops[s] = h
		t.next[s] = nx
		if isDown(down, s) {
			continue
		}
		h[s] = 0
		queue = queue[:0]
		queue = append(queue, NodeID(s))
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.adj[u] {
				if h[v] != InfHops {
					continue
				}
				h[v] = h[u] + 1
				if u == NodeID(s) {
					nx[v] = v
				} else {
					nx[v] = nx[u]
				}
				queue = append(queue, v)
			}
		}
	}
}

// N returns the number of nodes (including down nodes).
func (t *Topology) N() int { return len(t.positions) }

// Clique reports whether this topology came from NewClique: every pair one
// hop, no route tables. Cost models can exploit the uniform structure.
func (t *Topology) Clique() bool { return t.clique }

// Position returns the current position of node id.
func (t *Topology) Position(id NodeID) geo.Point { return t.positions[id] }

// Neighbors returns the direct radio neighbors of id. The returned slice
// must not be modified. Clique topologies build the row on every call
// (their only in-tree consumers never enumerate neighbors).
func (t *Topology) Neighbors(id NodeID) []NodeID {
	if t.clique {
		out := make([]NodeID, 0, len(t.positions)-1)
		for v := 0; v < len(t.positions); v++ {
			if NodeID(v) != id {
				out = append(out, NodeID(v))
			}
		}
		return out
	}
	return t.adj[id]
}

// Hops returns the shortest hop count between two nodes, or InfHops if they
// are in different components.
func (t *Topology) Hops(a, b NodeID) int {
	if t.clique {
		if a == b {
			return 0
		}
		return 1
	}
	return int(t.hops[a][b])
}

// NextHop returns the first hop on a shortest path from a toward b, or -1
// if b is unreachable. NextHop(a, a) returns a.
func (t *Topology) NextHop(a, b NodeID) NodeID {
	if a == b {
		return a
	}
	if t.clique {
		return b
	}
	return t.next[a][b]
}

// Reachable reports whether b can be reached from a.
func (t *Topology) Reachable(a, b NodeID) bool {
	return t.clique || t.hops[a][b] != InfHops
}

// Connected reports whether all up nodes form a single component.
// Down nodes are ignored.
func (t *Topology) Connected(down []bool) bool {
	if t.clique {
		return true
	}
	first := -1
	for i := 0; i < t.N(); i++ {
		if !isDown(down, i) {
			first = i
			break
		}
	}
	if first < 0 {
		return true
	}
	for i := 0; i < t.N(); i++ {
		if isDown(down, i) {
			continue
		}
		if t.hops[first][i] == InfHops {
			return false
		}
	}
	return true
}

// Mobility drives short-term node movement: every epoch each node jumps to
// a uniformly random point inside its mobility disc (clamped to the field),
// per Section VI ("mobility of the nodes is within 30 meter ranges").
type Mobility struct {
	Field      geo.Field
	Placements []geo.Placement
	RNG        *rand.Rand
}

// Step returns new positions for all nodes.
func (m *Mobility) Step() []geo.Point {
	out := make([]geo.Point, len(m.Placements))
	for i, pl := range m.Placements {
		out[i] = pl.RandomOffset(m.Field, m.RNG)
	}
	return out
}

// HomePositions extracts the home points from placements; used for the RDC
// cost model, which works on home positions plus mobility ranges.
func HomePositions(pls []geo.Placement) []geo.Point {
	out := make([]geo.Point, len(pls))
	for i, pl := range pls {
		out[i] = pl.Home
	}
	return out
}
