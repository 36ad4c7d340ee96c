package alloc

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/ufl"
)

func TestFDC(t *testing.T) {
	tests := []struct {
		name           string
		used, capacity int
		want           float64
	}{
		{"empty", 0, 250, 0},
		{"half", 125, 250, 1},
		{"nearly full", 249, 250, 249},
		{"full", 250, 250, math.Inf(1)},
		{"over full", 251, 250, math.Inf(1)},
		{"zero capacity", 0, 0, math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FDC(tt.used, tt.capacity); got != tt.want {
				t.Errorf("FDC(%d, %d) = %v, want %v", tt.used, tt.capacity, got, tt.want)
			}
		})
	}
}

// Property: FDC is monotonically non-decreasing in used storage.
func TestFDCMonotoneProperty(t *testing.T) {
	prop := func(a, b uint8, capRaw uint8) bool {
		capacity := int(capRaw) + 2
		ua, ub := int(a)%capacity, int(b)%capacity
		if ua > ub {
			ua, ub = ub, ua
		}
		return FDC(ua, capacity) <= FDC(ub, capacity)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// lineTopo builds a 5-node line topology with 50 m spacing and 70 m range.
func lineTopo(n int) *netsim.Topology {
	pos := make([]geo.Point, n)
	for i := range pos {
		pos[i] = geo.Point{X: float64(i) * 50}
	}
	return netsim.NewTopology(pos, 70)
}

func TestRDC(t *testing.T) {
	topo := lineTopo(5)
	if got := RDC(topo, 2, 2, [2]float64{30, 30}, 70); got != 0 {
		t.Errorf("RDC(i,i) = %v, want 0", got)
	}
	// 1 hop + (30+30)/70 hop units.
	want := 1 + 60.0/70
	if got := RDC(topo, 0, 1, [2]float64{30, 30}, 70); math.Abs(got-want) > 1e-12 {
		t.Errorf("RDC 1 hop = %v, want %v", got, want)
	}
	// 4 hops.
	want = 4 + 60.0/70
	if got := RDC(topo, 0, 4, [2]float64{30, 30}, 70); math.Abs(got-want) > 1e-12 {
		t.Errorf("RDC 4 hops = %v, want %v", got, want)
	}
}

func TestRDCUnreachable(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 1000}}
	topo := netsim.NewTopology(pos, 70)
	if got := RDC(topo, 0, 1, [2]float64{0, 0}, 70); !math.IsInf(got, 1) {
		t.Errorf("RDC unreachable = %v, want +Inf", got)
	}
}

func uniformStates(n, used, capacity int) []NodeState {
	out := make([]NodeState, n)
	for i := range out {
		out[i] = NodeState{Used: used, Capacity: capacity, MobilityRange: 30}
	}
	return out
}

func TestPlaceBasics(t *testing.T) {
	topo := lineTopo(5)
	p := NewPlanner(70)
	pl, err := p.Place(topo, uniformStates(5, 0, 250))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.StoringNodes) < p.MinReplicas {
		t.Fatalf("storing nodes %v below MinReplicas %d", pl.StoringNodes, p.MinReplicas)
	}
	if len(pl.AccessFrom) != 5 {
		t.Fatalf("AccessFrom has %d entries, want 5", len(pl.AccessFrom))
	}
	storing := make(map[int]bool)
	for _, i := range pl.StoringNodes {
		storing[i] = true
	}
	for j, i := range pl.AccessFrom {
		if !storing[i] {
			t.Fatalf("client %d assigned to non-storing node %d", j, i)
		}
	}
	// Storing nodes must be sorted and unique.
	for k := 1; k < len(pl.StoringNodes); k++ {
		if pl.StoringNodes[k] <= pl.StoringNodes[k-1] {
			t.Fatalf("storing nodes not sorted/unique: %v", pl.StoringNodes)
		}
	}
}

func TestPlaceAvoidsFullNodes(t *testing.T) {
	topo := lineTopo(5)
	p := NewPlanner(70)
	states := uniformStates(5, 0, 250)
	states[2].Used = 250 // node 2 is full
	pl, err := p.Place(topo, states)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range pl.StoringNodes {
		if i == 2 {
			t.Fatalf("full node 2 chosen as storing node: %v", pl.StoringNodes)
		}
	}
}

func TestPlacePrefersEmptierNodes(t *testing.T) {
	// Clique topology so RDC is symmetric; load skews the decision.
	pos := []geo.Point{{X: 0}, {X: 10}, {X: 20}}
	topo := netsim.NewTopology(pos, 70)
	p := NewPlanner(70)
	p.MinReplicas = 1
	states := []NodeState{
		{Used: 200, Capacity: 250, MobilityRange: 30},
		{Used: 10, Capacity: 250, MobilityRange: 30},
		{Used: 200, Capacity: 250, MobilityRange: 30},
	}
	pl, err := p.Place(topo, states)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range pl.StoringNodes {
		if i == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("emptiest node 1 not chosen: %v", pl.StoringNodes)
	}
}

func TestPlaceMinReplicasTopUp(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 10}, {X: 20}, {X: 30}}
	topo := netsim.NewTopology(pos, 70)
	p := NewPlanner(70)
	p.MinReplicas = 3
	pl, err := p.Place(topo, uniformStates(4, 0, 250))
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.StoringNodes) < 3 {
		t.Fatalf("got %d storing nodes, want >= 3", len(pl.StoringNodes))
	}
}

func TestPlaceMinReplicasCappedByCapacity(t *testing.T) {
	pos := []geo.Point{{X: 0}, {X: 10}, {X: 20}}
	topo := netsim.NewTopology(pos, 70)
	p := NewPlanner(70)
	p.MinReplicas = 3
	states := []NodeState{
		{Used: 0, Capacity: 250, MobilityRange: 30},
		{Used: 250, Capacity: 250, MobilityRange: 30},
		{Used: 250, Capacity: 250, MobilityRange: 30},
	}
	pl, err := p.Place(topo, states)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.StoringNodes) != 1 {
		t.Fatalf("got %v, want exactly the one non-full node", pl.StoringNodes)
	}
}

func TestPlaceErrors(t *testing.T) {
	topo := lineTopo(3)
	p := NewPlanner(70)
	if _, err := p.Place(topo, nil); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := p.Place(topo, uniformStates(2, 0, 10)); err == nil {
		t.Fatal("mismatched state count accepted")
	}
}

func TestPlaceWithAlternateSolvers(t *testing.T) {
	topo := lineTopo(5)
	states := uniformStates(5, 50, 250)
	for _, solve := range []func(*ufl.Instance) (*ufl.Solution, error){ufl.Greedy, ufl.Exact} {
		p := NewPlanner(70)
		p.Solve = solve
		if _, err := p.Place(topo, states); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRandomPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	states := uniformStates(10, 0, 250)
	states[3].Used = 250
	for trial := 0; trial < 50; trial++ {
		got := RandomPlace(states, 3, rng)
		if len(got) != 3 {
			t.Fatalf("got %d nodes, want 3", len(got))
		}
		seen := make(map[int]bool)
		for _, i := range got {
			if i == 3 {
				t.Fatal("full node chosen by random placement")
			}
			if seen[i] {
				t.Fatalf("duplicate node in %v", got)
			}
			seen[i] = true
		}
		for k := 1; k < len(got); k++ {
			if got[k] < got[k-1] {
				t.Fatalf("not sorted: %v", got)
			}
		}
	}
}

// TestPlaceOverflowSpreads checks the all-full case on both solver paths:
// the item goes to the least-used node, so overload spreads evenly.
func TestPlaceOverflowSpreads(t *testing.T) {
	nodes := uniformStates(5, 10, 10)
	nodes[0].Used, nodes[1].Used, nodes[3].Used, nodes[4].Used = 13, 14, 12, 11
	rng := rand.New(rand.NewSource(1))
	pls, _ := netsim.PlaceConnected(geo.DefaultField(), 5, 30, 70, rng)
	for name, topo := range map[string]*netsim.Topology{
		"clique": netsim.NewClique(5),
		"radio":  netsim.NewTopology(netsim.HomePositions(pls), 70),
	} {
		pl, err := NewPlanner(70).Place(topo, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pl.StoringNodes, []int{2}) {
			t.Errorf("%s: all full, stored on %v, want the least-used node [2]", name, pl.StoringNodes)
		}
	}
}

func TestRandomPlaceMoreThanAvailable(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	states := uniformStates(3, 0, 10)
	states[0].Used = 10
	got := RandomPlace(states, 5, rng)
	if len(got) != 2 {
		t.Fatalf("got %v, want the 2 non-full nodes", got)
	}
}

// TestPlaceCliqueMatchesGenericSolver pins the closed-form clique fast
// path to the generic instance-plus-greedy pipeline it shortcuts: same
// storing set, same access assignment, same cost, across empty, mixed,
// full and replica-top-up storage states. (Exact FDC == RDC-constant ties
// are excluded — integer used/capacity states never produce them.)
func TestPlaceCliqueMatchesGenericSolver(t *testing.T) {
	const n = 41
	cases := []struct {
		name        string
		used        func(i int) int
		minReplicas int
	}{
		{"all-empty", func(int) int { return 0 }, 2},
		{"one-empty", func(i int) int {
			if i == 7 {
				return 0
			}
			return 13
		}, 2},
		{"two-empty", func(i int) int { return (i * 3) % 40 }, 2},
		{"all-full", func(int) int { return 64 }, 2},
		{"top-up", func(i int) int { return 5 + i%50 }, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := netsim.NewClique(n)
			nodes := make([]NodeState, n)
			for i := range nodes {
				nodes[i] = NodeState{Used: tc.used(i), Capacity: 64}
			}
			fast := NewPlanner(1)
			fast.MinReplicas = tc.minReplicas
			slow := NewPlanner(1)
			slow.MinReplicas = tc.minReplicas
			slow.Solve = ufl.Greedy // explicit solver disables the fast path
			fp, err := fast.Place(topo, nodes)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := slow.Place(topo, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fp.StoringNodes, sp.StoringNodes) {
				t.Fatalf("storing nodes diverged: fast %v, generic %v", fp.StoringNodes, sp.StoringNodes)
			}
			if !reflect.DeepEqual(fp.AccessFrom, sp.AccessFrom) {
				t.Fatalf("access assignment diverged: fast %v, generic %v", fp.AccessFrom, sp.AccessFrom)
			}
			if fp.Cost != sp.Cost && math.Abs(fp.Cost-sp.Cost) > 1e-9*(1+math.Abs(sp.Cost)) {
				t.Fatalf("cost diverged: fast %v, generic %v", fp.Cost, sp.Cost)
			}
		})
	}
}
