// Package netsim models the multi-hop wireless network connecting edge
// devices.
//
// Any two nodes within the radio range (70 m in the paper, typical 802.11n)
// share a link. PlaceConnected lays nodes out so that this graph is
// connected, and Topology holds its shortest hop counts, the distance the
// Range-Distance Cost (eq. 2) is counted in. Radio (radio.go) is the hop
// model an in-memory transport delivers frames over: a fixed per-hop delay
// (10 ms in the paper), per-hop transmission time, mobility epochs, and
// every frame's bytes billed to its sender so the evaluation can report
// per-node transmission overhead as in Section VI-A.
package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/geo"
)

// NodeID identifies a node; IDs are dense indices assigned at placement.
type NodeID int

// InfHops marks unreachable node pairs in hop-count queries.
const InfHops = math.MaxInt32

// Topology is the radio graph's all-pairs shortest hop counts. It is
// rebuilt whenever nodes move.
type Topology struct {
	n    int
	hops []int32 // row-major n×n, InfHops if unreachable; nil for a clique
}

// NewClique returns the all-pairs-one-hop topology of a full TCP overlay
// mesh: every distinct pair is one hop apart and always reachable. It holds
// n alone, so building one is O(1) — a dense radio graph over co-located
// nodes costs O(n²) memory and O(n³) BFS time, which at 1000 nodes is
// gigabytes and minutes PER NODE STACK that holds one. Overlay deployments
// track liveness above the transport.
func NewClique(n int) *Topology { return &Topology{n: n} }

// NewTopology builds the radio graph for the given positions and range:
// one BFS per source over the disc graph.
func NewTopology(positions []geo.Point, commRange float64) *Topology {
	n := len(positions)
	adj := make([][]int32, n)
	for i := range positions {
		for j := i + 1; j < n; j++ {
			if geo.Dist(positions[i], positions[j]) <= commRange {
				adj[i] = append(adj[i], int32(j))
				adj[j] = append(adj[j], int32(i))
			}
		}
	}
	t := &Topology{n: n, hops: make([]int32, n*n)}
	queue := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		h := t.hops[s*n : (s+1)*n]
		for i := range h {
			h[i] = InfHops
		}
		h[s] = 0
		queue = append(queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range adj[u] {
				if h[v] == InfHops {
					h[v] = h[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return t
}

// N returns the number of nodes.
func (t *Topology) N() int { return t.n }

// Clique reports whether this topology came from NewClique: every pair one
// hop. Cost models can exploit the uniform structure.
func (t *Topology) Clique() bool { return t.hops == nil }

// Hops returns the shortest hop count between two nodes, or InfHops if they
// are in different components.
func (t *Topology) Hops(a, b NodeID) int {
	if t.hops == nil {
		if a == b {
			return 0
		}
		return 1
	}
	return int(t.hops[int(a)*t.n+int(b)])
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

// PlaceConnected places n nodes randomly such that the radio graph over
// their homes at commRange is connected (every node reaches every other
// over multi-hop paths). Purely uniform layouts are almost never connected
// at the paper's density (10 nodes, 70 m range in 300 m x 300 m), so after
// 25 uniform layouts this uses connected growth: each node samples uniform
// positions until one lands within radio range of the already-placed
// component, falling back to a position inside a random placed node's
// radio disc. The result stays spread over the field but is connected by
// construction, which the multi-hop protocol evaluation requires.
func PlaceConnected(f geo.Field, n int, mobilityRange, commRange float64, rng *rand.Rand) ([]geo.Placement, error) {
	if commRange <= 0 && n > 1 {
		return geo.PlaceNodes(f, n, mobilityRange, rng), fmt.Errorf("netsim: no connected layout possible with commRange %.1f", commRange)
	}
	// A handful of fully uniform tries keeps high-density layouts unbiased.
	for attempt := 0; attempt < 25; attempt++ {
		layout := geo.PlaceNodes(f, n, mobilityRange, rng)
		if connected(layout, commRange) {
			return layout, nil
		}
	}
	// Connected growth.
	out := make([]geo.Placement, 0, n)
	out = append(out, geo.Placement{Home: f.RandomPoint(rng), Range: mobilityRange})
	const triesPerNode = 200
	for len(out) < n {
		placed := false
		for try := 0; try < triesPerNode && !placed; try++ {
			p := f.RandomPoint(rng)
			for _, q := range out {
				if geo.Dist(p, q.Home) <= commRange {
					out = append(out, geo.Placement{Home: p, Range: mobilityRange})
					placed = true
					break
				}
			}
		}
		if !placed {
			// Force a position inside a random placed node's radio disc.
			anchor := out[rng.Intn(len(out))]
			p := geo.Placement{Home: anchor.Home, Range: commRange}.RandomOffset(f, rng)
			out = append(out, geo.Placement{Home: p, Range: mobilityRange})
		}
	}
	if !connected(out, commRange) {
		return out, fmt.Errorf("netsim: growth layout unexpectedly disconnected for n=%d", n)
	}
	return out, nil
}

// connected reports whether every home reaches node 0's on the radio graph:
// row 0 of its hop matrix holds no InfHops.
func connected(pls []geo.Placement, commRange float64) bool {
	return len(pls) == 0 || !slices.Contains(NewTopology(HomePositions(pls), commRange).hops[:len(pls)], InfHops)
}
