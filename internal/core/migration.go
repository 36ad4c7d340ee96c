package core

import (
	"repro/internal/alloc"
	"repro/internal/engine"
	"repro/internal/meta"
)

// MigrationAdvice is the recomputed placement for one live data item whose
// current storing set has drifted from optimal (the paper's Section VII
// data-migration future work).
type MigrationAdvice struct {
	ID      meta.DataID
	Current []int
	Desired []int
	Plan    *alloc.Plan
}

// PlacementDrift measures how far live items have drifted from optimal
// placement, as observed by one node: the mean over live items of
// cost(current assignment) / cost(recomputed optimal), where cost is the
// UFL objective of eq. (3). 1.0 means every item is optimally placed;
// the Section VII migration mechanism exists to push this back toward 1.
func (s *System) PlacementDrift(observer int) float64 {
	n := s.nodes[observer]
	now := s.clock.Elapsed()
	topo := s.net.HomeTopology()
	states := n.eng.View().NodeStates(now)
	in := s.planner.BuildInstance(topo, states)
	pl, err := s.planner.Place(topo, states)
	if err != nil || len(pl.StoringNodes) == 0 {
		return 1
	}
	optimal := engine.SetCost(in, pl.StoringNodes)
	if optimal <= 0 {
		return 1
	}
	total, count := 0.0, 0
	for _, it := range n.eng.LiveItems() {
		if it.Expired(now) || len(it.StoringNodes) == 0 {
			continue
		}
		total += engine.SetCost(in, it.StoringNodes) / optimal
		count++
	}
	if count == 0 {
		return 1
	}
	return total / float64(count)
}

// MigrationAdvice recomputes the optimal placement for every unexpired
// data item recorded in node observer's chain and returns the minimal
// move plans for the items that are no longer optimally placed. It is
// advisory — the protocol does not yet execute migrations, matching the
// paper, but examples and ablations can quantify the drift.
func (s *System) MigrationAdvice(observer int) []MigrationAdvice {
	n := s.nodes[observer]
	now := s.clock.Elapsed()
	topo := s.net.HomeTopology()
	states := n.eng.View().NodeStates(now)
	var out []MigrationAdvice
	for _, b := range n.eng.Chain().Blocks() {
		for _, it := range b.Items {
			if it.Expired(now) || len(it.StoringNodes) == 0 {
				continue
			}
			pl, err := s.planner.Place(topo, states)
			if err != nil {
				continue
			}
			plan := alloc.MigrationPlan(it.StoringNodes, pl.StoringNodes)
			if plan.Empty() {
				continue
			}
			out = append(out, MigrationAdvice{
				ID:      it.ID,
				Current: append([]int(nil), it.StoringNodes...),
				Desired: pl.StoringNodes,
				Plan:    plan,
			})
		}
	}
	return out
}
