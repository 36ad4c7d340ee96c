// Package ufl solves the Uncapacitated Facility Location problem that the
// storage-allocation formulation of Section IV-A3 reduces to.
//
// For each data item the paper minimizes
//
//	A·Σ f_i·y_i + Σ Σ c_ij·x_ij   s.t. every client j is assigned a facility
//
// where f_i is the Fairness Degree Cost of node i (opening cost) and c_ij
// the Range-Distance Cost (connection cost). UFL is NP-hard; the paper
// points at approximation algorithms (Li's 1.488). This package provides:
//
//   - Greedy: Hochbaum's greedy with best cost-effectiveness ratio,
//     the solver the allocation layer runs (ln n approximation; on
//     paper-shaped instances of 16 facilities it lands within 0.1 % of
//     the optimum on average, 3.2 % at worst, TestGreedyNearExactOnPaperInstances).
//   - Exact: bitmask brute force for ≤ 20 facilities, the ground truth in
//     tests.
package ufl

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Instance is a UFL instance. Facilities and clients are separate index
// spaces; in the paper they are both the node set V.
type Instance struct {
	// OpenCost[i] is the cost of opening facility i. May be +Inf for
	// facilities that must not open (e.g. nodes with no storage left).
	OpenCost []float64
	// ConnCost[i][j] is the cost of serving client j from facility i.
	ConnCost [][]float64
}

// NFacilities returns the number of candidate facilities.
func (in *Instance) NFacilities() int { return len(in.OpenCost) }

// NClients returns the number of clients.
func (in *Instance) NClients() int {
	if len(in.ConnCost) == 0 {
		return 0
	}
	return len(in.ConnCost[0])
}

// Validate checks structural consistency.
func (in *Instance) Validate() error {
	if len(in.OpenCost) == 0 {
		return errors.New("ufl: no facilities")
	}
	if len(in.ConnCost) != len(in.OpenCost) {
		return fmt.Errorf("ufl: %d connection rows for %d facilities", len(in.ConnCost), len(in.OpenCost))
	}
	nc := in.NClients()
	for i, row := range in.ConnCost {
		if len(row) != nc {
			return fmt.Errorf("ufl: row %d has %d clients, want %d", i, len(row), nc)
		}
	}
	for i, f := range in.OpenCost {
		if f < 0 || math.IsNaN(f) {
			return fmt.Errorf("ufl: facility %d has invalid open cost %v", i, f)
		}
	}
	return nil
}

// Solution is an assignment of every client to one open facility.
type Solution struct {
	// Open lists open facility indices in ascending order.
	Open []int
	// Assign[j] is the open facility serving client j.
	Assign []int
	// Cost is the total open + connection cost.
	Cost float64
}

// Verify checks that the solution is feasible for the instance and that
// Cost is consistent.
func (s *Solution) Verify(in *Instance) error {
	if len(s.Open) == 0 {
		return errors.New("ufl: no open facilities")
	}
	open := make(map[int]bool, len(s.Open))
	for _, i := range s.Open {
		if i < 0 || i >= in.NFacilities() {
			return fmt.Errorf("ufl: open facility %d out of range", i)
		}
		open[i] = true
	}
	if len(s.Assign) != in.NClients() {
		return fmt.Errorf("ufl: %d assignments for %d clients", len(s.Assign), in.NClients())
	}
	for j, i := range s.Assign {
		if !open[i] {
			return fmt.Errorf("ufl: client %d assigned to closed facility %d", j, i)
		}
	}
	want := CostOf(in, s.Open, s.Assign)
	if math.Abs(want-s.Cost) > 1e-6*(1+math.Abs(want)) {
		return fmt.Errorf("ufl: cost %v inconsistent with assignment cost %v", s.Cost, want)
	}
	return nil
}

// CostOf computes the total cost of opening the given facilities with the
// given assignment.
func CostOf(in *Instance, open []int, assign []int) float64 {
	total := 0.0
	for _, i := range open {
		total += in.OpenCost[i]
	}
	for j, i := range assign {
		total += in.ConnCost[i][j]
	}
	return total
}

// assignBest maps every client to its cheapest facility among open, and
// returns the assignment plus total connection cost.
func assignBest(in *Instance, open []int) ([]int, float64) {
	nc := in.NClients()
	assign := make([]int, nc)
	total := 0.0
	for j := 0; j < nc; j++ {
		best, bestCost := -1, math.Inf(1)
		for _, i := range open {
			if c := in.ConnCost[i][j]; c < bestCost {
				best, bestCost = i, c
			}
		}
		assign[j] = best
		total += bestCost
	}
	return assign, total
}

func solutionFor(in *Instance, openSet map[int]bool) *Solution {
	open := make([]int, 0, len(openSet))
	for i := range openSet {
		open = append(open, i)
	}
	sort.Ints(open)
	assign, conn := assignBest(in, open)
	total := conn
	for _, i := range open {
		total += in.OpenCost[i]
	}
	return &Solution{Open: open, Assign: assign, Cost: total}
}

// cheapestFallback ensures at least one facility is openable: if every open
// cost is +Inf the caller still must store the data somewhere, so the
// facility with the cheapest connection total is used as a last resort.
func cheapestFallback(in *Instance) int {
	best, bestCost := 0, math.Inf(1)
	for i := range in.OpenCost {
		total := 0.0
		for j := 0; j < in.NClients(); j++ {
			total += in.ConnCost[i][j]
		}
		if total < bestCost {
			best, bestCost = i, total
		}
	}
	return best
}

// Greedy solves the instance with Hochbaum's greedy algorithm: repeatedly
// open (or reuse) the facility whose next batch of clients has the best
// (cost / clients served) ratio, until every client is assigned.
func Greedy(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	nf, nc := in.NFacilities(), in.NClients()
	if nc == 0 {
		return nil, errors.New("ufl: no clients")
	}
	openSet := make(map[int]bool)
	assigned := make([]bool, nc)
	remaining := nc

	// ordered[i] lists clients sorted by connection cost to facility i.
	ordered := make([][]int, nf)
	for i := 0; i < nf; i++ {
		idx := make([]int, nc)
		for j := range idx {
			idx[j] = j
		}
		row := in.ConnCost[i]
		sort.Slice(idx, func(a, b int) bool { return row[idx[a]] < row[idx[b]] })
		ordered[i] = idx
	}

	var batch, bestBatch []int
	for remaining > 0 {
		bestRatio := math.Inf(1)
		bestFac := -1
		bestBatch = bestBatch[:0]
		for i := 0; i < nf; i++ {
			openCost := in.OpenCost[i]
			if openSet[i] {
				openCost = 0
			}
			if math.IsInf(openCost, 1) {
				continue
			}
			// Best prefix of unassigned clients by cost ratio: since the
			// clients are sorted by connection cost, the optimal batch for
			// this facility is some prefix of the unassigned ones. Ties go
			// to the LONGER prefix (<=, cross-multiplied to avoid float
			// division): on plateaus of equal connection cost — ubiquitous
			// in hop-count instances, where an open facility serves any
			// remaining client at the same cost — a shortest-prefix rule
			// assigns one client per pass and turns the whole solve
			// quadratic in the client count.
			sum := openCost
			count := 0
			batch = batch[:0]
			bsum := 0.0
			bcount := 0
			for _, j := range ordered[i] {
				if assigned[j] {
					continue
				}
				sum += in.ConnCost[i][j]
				count++
				batch = append(batch, j)
				if bcount == 0 || sum*float64(bcount) <= bsum*float64(count) {
					bsum, bcount = sum, count
				}
			}
			if bcount == 0 {
				continue
			}
			if ratio := bsum / float64(bcount); ratio < bestRatio {
				bestRatio = ratio
				bestFac = i
				bestBatch = append(bestBatch[:0], batch[:bcount]...)
			}
		}
		if bestFac < 0 {
			// All facilities are unopenable (+Inf): force the fallback.
			f := cheapestFallback(in)
			openSet[f] = true
			for j := 0; j < nc; j++ {
				if !assigned[j] {
					assigned[j] = true
					remaining--
				}
			}
			break
		}
		openSet[bestFac] = true
		for _, j := range bestBatch {
			assigned[j] = true
			remaining--
		}
	}
	return solutionFor(in, openSet), nil
}

// Exact solves the instance optimally by enumerating facility subsets. It
// refuses instances with more than MaxExactFacilities facilities.
const MaxExactFacilities = 20

// Exact returns the optimal solution by brute force.
func Exact(in *Instance) (*Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	nf := in.NFacilities()
	if nf > MaxExactFacilities {
		return nil, fmt.Errorf("ufl: exact solver limited to %d facilities, got %d", MaxExactFacilities, nf)
	}
	var best *Solution
	for mask := 1; mask < 1<<nf; mask++ {
		openCost := 0.0
		open := make([]int, 0, nf)
		for i := 0; i < nf; i++ {
			if mask&(1<<i) != 0 {
				openCost += in.OpenCost[i]
				open = append(open, i)
			}
		}
		if best != nil && openCost >= best.Cost {
			continue
		}
		assign, conn := assignBest(in, open)
		total := openCost + conn
		if best == nil || total < best.Cost {
			best = &Solution{Open: open, Assign: assign, Cost: total}
		}
	}
	if best == nil {
		return nil, errors.New("ufl: no feasible solution")
	}
	if math.IsInf(best.Cost, 1) {
		// Every subset is unopenable: fall back as Greedy does.
		return solutionFor(in, map[int]bool{cheapestFallback(in): true}), nil
	}
	return best, nil
}
