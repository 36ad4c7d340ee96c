// Package alloc implements the fair and efficient storage allocation of
// Section IV: the Fairness Degree Cost (eq. 1), the Range-Distance Cost
// (eq. 2), the weighted UFL formulation (eq. 3-6) that picks storing nodes
// for every data item and block, the recent-block FIFO cache of Section
// IV-C, and the random-placement baseline used in the Fig. 5 comparison.
package alloc

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/netsim"
	"repro/internal/ufl"
)

// DefaultFDCWeight is the scaling factor A of eq. (3). The paper reports
// that feature scaling with FDC:RDC = 1000:1 "produces the best result".
const DefaultFDCWeight = 1000

// DefaultMinReplicas is the minimum number of storing nodes per item:
// "there are always replicas for certain data" (Section III-B2).
const DefaultMinReplicas = 2

// FDC computes the Fairness Degree Cost of eq. (1):
//
//	f_i = W(i) / (W_tol(i) − W(i))
//
// It returns +Inf when the node is full (or over-full), which removes the
// node from consideration as required by the paper.
func FDC(used, capacity int) float64 {
	if capacity <= 0 || used >= capacity {
		return math.Inf(1)
	}
	return float64(used) / float64(capacity-used)
}

// NodeState is the per-node input to placement decisions.
type NodeState struct {
	// Used and Capacity are in storage units (data items / blocks; the
	// paper assumes uniform item size, Section V-A).
	Used     int
	Capacity int
	// MobilityRange is the node's movement radius in meters (range(i) of
	// eq. 2).
	MobilityRange float64
}

// RDC computes the Range-Distance Cost of eq. (2) in hop units:
//
//	c_ij = d(i,j) + range(i) + range(j),  c_ii = 0
//
// d is the hop-count distance from the topology; mobility ranges (meters)
// are normalized to hop units by dividing by the radio range, so a node
// that can wander a full radio range adds one hop of uncertainty.
// Unreachable pairs get +Inf.
func RDC(topo *netsim.Topology, i, j int, ranges [2]float64, commRange float64) float64 {
	if i == j {
		return 0
	}
	h := topo.Hops(netsim.NodeID(i), netsim.NodeID(j))
	if h == netsim.InfHops {
		return math.Inf(1)
	}
	norm := (ranges[0] + ranges[1]) / commRange
	return float64(h) + norm
}

// Planner computes storing-node sets by solving the weighted UFL instance
// of eq. (3). The zero value is not usable; create one with NewPlanner.
type Planner struct {
	// FDCWeight is A in eq. (3).
	FDCWeight float64
	// MinReplicas forces at least this many storing nodes per item.
	MinReplicas int
	// CommRange normalizes mobility ranges into hop units.
	CommRange float64
	// Solve is the UFL solver; defaults to ufl.Greedy.
	Solve func(*ufl.Instance) (*ufl.Solution, error)
}

// NewPlanner returns a planner with the paper's parameters (A = 1000,
// ≥ 2 replicas) and the greedy solver. Solve stays nil — the nil default
// both means ufl.Greedy and tells Place it may use the exact closed-form
// solution on clique topologies; setting any explicit solver (even
// ufl.Greedy) disables that fast path.
func NewPlanner(commRange float64) *Planner {
	return &Planner{
		FDCWeight:   DefaultFDCWeight,
		MinReplicas: DefaultMinReplicas,
		CommRange:   commRange,
	}
}

// Placement is the outcome for one data item or block.
type Placement struct {
	// StoringNodes lists the chosen storing nodes in ascending order.
	StoringNodes []int
	// AccessFrom[j] is the storing node that client j should fetch from
	// (x_ijk of the formulation).
	AccessFrom []int
	// Cost is the UFL objective value.
	Cost float64
}

// BuildInstance constructs the UFL instance of eq. (3) for the current
// network state: every node is both a candidate facility and a client.
func (p *Planner) BuildInstance(topo *netsim.Topology, nodes []NodeState) *ufl.Instance {
	n := len(nodes)
	in := &ufl.Instance{
		OpenCost: make([]float64, n),
		ConnCost: make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		in.OpenCost[i] = p.FDCWeight * FDC(nodes[i].Used, nodes[i].Capacity)
		in.ConnCost[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			c := RDC(topo, i, j, [2]float64{nodes[i].MobilityRange, nodes[j].MobilityRange}, p.CommRange)
			if math.IsInf(c, 1) {
				// Unreachable pairs: huge finite penalty keeps the solver
				// numerics sane while still strongly discouraging the pick.
				c = 1e9
			}
			in.ConnCost[i][j] = c
		}
	}
	return in
}

// Place chooses the storing nodes for one item given the current topology
// and per-node storage state.
func (p *Planner) Place(topo *netsim.Topology, nodes []NodeState) (*Placement, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("alloc: no nodes")
	}
	if len(nodes) != topo.N() {
		return nil, fmt.Errorf("alloc: %d node states for %d topology nodes", len(nodes), topo.N())
	}
	if i, ok := overflowNode(nodes); ok {
		// Every node is full: FDC rules them all out and no choice is fair,
		// so the item goes to the least-used node and overload spreads
		// evenly instead of piling onto one node.
		assign := make([]int, len(nodes))
		for j := range assign {
			assign[j] = i
		}
		return &Placement{StoringNodes: []int{i}, AccessFrom: assign, Cost: math.Inf(1)}, nil
	}
	if p.Solve == nil && topo.Clique() && uniformRanges(nodes) {
		// One-hop clique with uniform mobility: eq. (3) separates per node
		// and has an exact O(n) solution — skip the O(n²) instance and the
		// greedy solver entirely. This is the live-deployment hot path:
		// every mined block solves placement at least twice, and at 1000
		// nodes the generic path costs seconds per solve.
		return p.placeClique(nodes), nil
	}
	solve := p.Solve
	if solve == nil {
		solve = ufl.Greedy
	}
	in := p.BuildInstance(topo, nodes)
	sol, err := solve(in)
	if err != nil {
		return nil, fmt.Errorf("alloc: solve placement: %w", err)
	}
	open := append([]int(nil), sol.Open...)
	open = p.topUpReplicas(open, nodes, in)
	// Recompute the access assignment over the final open set.
	assign := make([]int, len(nodes))
	for j := range nodes {
		best, bestCost := open[0], math.Inf(1)
		for _, i := range open {
			if c := in.ConnCost[i][j]; c < bestCost {
				best, bestCost = i, c
			}
		}
		assign[j] = best
	}
	return &Placement{
		StoringNodes: open,
		AccessFrom:   assign,
		Cost:         ufl.CostOf(in, open, assign),
	}, nil
}

// overflowNode returns the least-used node (lowest index on ties) when every
// node is full, and false while any node has room.
func overflowNode(nodes []NodeState) (int, bool) {
	best := 0
	for i, st := range nodes {
		if st.Used < st.Capacity {
			return 0, false
		}
		if st.Used < nodes[best].Used {
			best = i
		}
	}
	return best, true
}

// uniformRanges reports whether every node shares one mobility range, the
// condition under which a clique's RDC matrix is a single constant off the
// diagonal.
func uniformRanges(nodes []NodeState) bool {
	for _, st := range nodes[1:] {
		if st.MobilityRange != nodes[0].MobilityRange {
			return false
		}
	}
	return true
}

// placeClique solves eq. (3) exactly on a one-hop clique with uniform
// mobility ranges. There c_ij = c for every i ≠ j and 0 on the diagonal,
// so the objective collapses to c·n + Σ_open (f_i − c): open exactly the
// nodes whose weighted FDC is below c (each pays for itself by serving
// its own demand), or the single cheapest node when none qualifies (Place
// handles the all-full case before the fast path). The MinReplicas top-up
// mirrors topUpReplicas: every unopened non-full node offers the identical
// connection saving c, so the marginal criterion reduces to FDC order with
// index ties.
func (p *Planner) placeClique(nodes []NodeState) *Placement {
	n := len(nodes)
	c := 1 + (nodes[0].MobilityRange+nodes[0].MobilityRange)/p.CommRange
	open := make([]int, 0, DefaultMinReplicas)
	for i, st := range nodes {
		if p.FDCWeight*FDC(st.Used, st.Capacity) < c {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		best, bestF := 0, math.Inf(1)
		for i, st := range nodes {
			if f := p.FDCWeight * FDC(st.Used, st.Capacity); f < bestF {
				best, bestF = i, f
			}
		}
		open = append(open, best)
	}
	if len(open) < p.MinReplicas {
		type cand struct {
			f float64
			i int
		}
		isOpen := make(map[int]bool, len(open))
		for _, i := range open {
			isOpen[i] = true
		}
		cands := make([]cand, 0, n)
		for i, st := range nodes {
			if isOpen[i] || st.Used >= st.Capacity {
				continue
			}
			cands = append(cands, cand{p.FDCWeight * FDC(st.Used, st.Capacity), i})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].f != cands[b].f {
				return cands[a].f < cands[b].f
			}
			return cands[a].i < cands[b].i
		})
		for _, cd := range cands {
			if len(open) >= p.MinReplicas {
				break
			}
			open = insertSorted(open, cd.i)
		}
	}
	assign := make([]int, n)
	isOpen := make([]bool, n)
	cost := 0.0
	for _, i := range open {
		isOpen[i] = true
		cost += p.FDCWeight * FDC(nodes[i].Used, nodes[i].Capacity)
	}
	for j := 0; j < n; j++ {
		if isOpen[j] {
			assign[j] = j
		} else {
			assign[j] = open[0]
			cost += c
		}
	}
	return &Placement{StoringNodes: open, AccessFrom: assign, Cost: cost}
}

// topUpReplicas extends the open set to MinReplicas by the UFL marginal
// criterion: pick the non-full node with the lowest opening cost minus the
// total connection-cost reduction it brings over the current open set, so
// extra replicas land both fairly and near demand.
func (p *Planner) topUpReplicas(open []int, nodes []NodeState, in *ufl.Instance) []int {
	if len(open) >= p.MinReplicas {
		return open
	}
	nc := in.NClients()
	inSet := make(map[int]bool, len(open))
	for _, i := range open {
		inSet[i] = true
	}
	// bestConn[j] is client j's current cheapest connection.
	bestConn := make([]float64, nc)
	for j := 0; j < nc; j++ {
		bestConn[j] = math.Inf(1)
		for _, i := range open {
			if c := in.ConnCost[i][j]; c < bestConn[j] {
				bestConn[j] = c
			}
		}
	}
	for len(open) < p.MinReplicas {
		best, bestScore := -1, math.Inf(1)
		for i, st := range nodes {
			if inSet[i] || st.Used >= st.Capacity {
				continue
			}
			score := in.OpenCost[i]
			for j := 0; j < nc; j++ {
				if c := in.ConnCost[i][j]; c < bestConn[j] {
					score -= bestConn[j] - c
				}
			}
			if score < bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			// Every remaining node is full; cannot add more replicas.
			break
		}
		inSet[best] = true
		open = insertSorted(open, best)
		for j := 0; j < nc; j++ {
			if c := in.ConnCost[best][j]; c < bestConn[j] {
				bestConn[j] = c
			}
		}
	}
	return open
}

func insertSorted(s []int, v int) []int {
	pos := len(s)
	for i, x := range s {
		if v < x {
			pos = i
			break
		}
	}
	s = append(s, 0)
	copy(s[pos+1:], s[pos:])
	s[pos] = v
	return s
}

// RandomPlace is the baseline of Section VI-B: it stores the item on k
// uniformly random non-full nodes ("for a fair comparison, the total number
// of data and blocks stored is the same as the optimal placement").
func RandomPlace(nodes []NodeState, k int, rng *rand.Rand) []int {
	candidates := make([]int, 0, len(nodes))
	for i, st := range nodes {
		if st.Used < st.Capacity {
			candidates = append(candidates, i)
		}
	}
	if k > len(candidates) {
		k = len(candidates)
	}
	rng.Shuffle(len(candidates), func(a, b int) {
		candidates[a], candidates[b] = candidates[b], candidates[a]
	})
	chosen := append([]int(nil), candidates[:k]...)
	return sortedInts(chosen)
}

func sortedInts(s []int) []int {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}
