package ufl_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/alloc"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/ufl"
)

// paperLikeInstance builds a UFL instance the way the planner builds one
// for a data item: n nodes random in the field, hop-count RDC connection
// costs (eq. 2) and FDC opening costs (eq. 1) under random storage loads.
func paperLikeInstance(rng *rand.Rand, n int) *ufl.Instance {
	pls, _ := netsim.PlaceConnected(geo.DefaultField(), n, 30, 70, rng)
	topo := netsim.NewTopology(netsim.HomePositions(pls), 70)
	states := make([]alloc.NodeState, n)
	for i := range states {
		states[i] = alloc.NodeState{Used: rng.Intn(200), Capacity: 250, MobilityRange: 30}
	}
	return alloc.NewPlanner(70).BuildInstance(topo, states)
}

// TestGreedyNearExactOnPaperInstances: every placement runs ufl.Greedy, so
// what matters is how far greedy lands from the optimum on the instances
// the system builds. Over 50 paper-shaped instances of 16 nodes at seed 1,
// greedy's cost over Exact's measured 1.0006 on average and 1.0321 at
// worst. The bounds, 1.002 and 1.04, leave 0.14 and 0.8 points of headroom
// over those values: a planner or solver change that moved greedy off the
// optimum by more shows here.
func TestGreedyNearExactOnPaperInstances(t *testing.T) {
	const (
		facilities = 16
		trials     = 50
		meanBound  = 1.002
		maxBound   = 1.04
	)
	rng := rand.New(rand.NewSource(1))
	sum, worst := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		in := paperLikeInstance(rng, facilities)
		opt, err := ufl.Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := ufl.Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := sol.Verify(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ratio := sol.Cost / opt.Cost
		if ratio < 1-1e-9 {
			t.Fatalf("trial %d: greedy cost %v below the optimum %v", trial, sol.Cost, opt.Cost)
		}
		sum += ratio
		worst = math.Max(worst, ratio)
	}
	mean := sum / trials
	t.Logf("greedy / exact over %d instances of %d nodes: mean %.4f, max %.4f", trials, facilities, mean, worst)
	if mean > meanBound || worst > maxBound {
		t.Fatalf("greedy / exact: mean %.4f (bound %v), max %.4f (bound %v)", mean, meanBound, worst, maxBound)
	}
}
