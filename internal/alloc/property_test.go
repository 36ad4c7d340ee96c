package alloc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geo"
	"repro/internal/netsim"
)

// Property: for a fixed capacity the Fairness Degree Cost is strictly
// increasing in used storage, infinite exactly when the node is full, and
// strictly decreasing in capacity for fixed load.
func TestFDCMonotonicityProperty(t *testing.T) {
	prop := func(capRaw, usedRaw uint8) bool {
		capacity := int(capRaw%100) + 2 // 2..101
		used := int(usedRaw) % capacity // 0..capacity-1
		f := FDC(used, capacity)
		if math.IsInf(f, 1) || f < 0 {
			return false
		}
		if used+1 < capacity && FDC(used+1, capacity) <= f {
			return false // more load must cost strictly more
		}
		if !math.IsInf(FDC(capacity, capacity), 1) || !math.IsInf(FDC(capacity+1, capacity), 1) {
			return false // full and over-full nodes must be unplaceable
		}
		if used > 0 && FDC(used, capacity+1) >= f {
			return false // more headroom must cost strictly less
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// randomCluster builds a random connected-enough topology plus node states
// with random capacities/loads/mobility, guaranteeing at least minFree
// non-full nodes.
func randomCluster(rng *rand.Rand, minFree int) (*netsim.Topology, []NodeState) {
	n := minFree + rng.Intn(6) // minFree..minFree+5 nodes
	pos := make([]geo.Point, n)
	nodes := make([]NodeState, n)
	for i := range pos {
		// 60 m spacing max with 70 m range keeps a line-ish backbone
		// connected while still producing multi-hop distances.
		pos[i] = geo.Point{X: float64(i)*60 + rng.Float64()*10, Y: rng.Float64() * 30}
		capacity := 1 + rng.Intn(5)
		used := rng.Intn(capacity + 1) // may be full
		nodes[i] = NodeState{Used: used, Capacity: capacity, MobilityRange: rng.Float64() * 30}
	}
	// Force the guaranteed free nodes at random indices.
	for _, i := range rng.Perm(n)[:minFree] {
		nodes[i].Capacity = 1 + rng.Intn(5)
		nodes[i].Used = rng.Intn(nodes[i].Capacity)
	}
	return netsim.NewTopology(pos, 70), nodes
}

// Property: Place never opens a full node (no capacity overflow), returns
// a sorted duplicate-free storing set of at least MinReplicas whenever
// enough non-full nodes exist, and assigns every client to a storing node.
func TestPlaceNoOverflowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPlanner(70)
	for iter := 0; iter < 200; iter++ {
		topo, nodes := randomCluster(rng, p.MinReplicas)
		pl, err := p.Place(topo, nodes)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		free := 0
		for _, st := range nodes {
			if st.Used < st.Capacity {
				free++
			}
		}
		want := p.MinReplicas
		if free < want {
			want = free
		}
		if len(pl.StoringNodes) < want {
			t.Fatalf("iter %d: %d storing nodes, want >= %d (free=%d)", iter, len(pl.StoringNodes), want, free)
		}
		for k, i := range pl.StoringNodes {
			if nodes[i].Used >= nodes[i].Capacity {
				t.Fatalf("iter %d: full node %d (%d/%d) chosen as storing node",
					iter, i, nodes[i].Used, nodes[i].Capacity)
			}
			if k > 0 && pl.StoringNodes[k-1] >= i {
				t.Fatalf("iter %d: storing nodes not sorted/unique: %v", iter, pl.StoringNodes)
			}
		}
		open := make(map[int]bool)
		for _, i := range pl.StoringNodes {
			open[i] = true
		}
		for j, i := range pl.AccessFrom {
			if !open[i] {
				t.Fatalf("iter %d: client %d assigned to non-storing node %d", iter, j, i)
			}
		}
	}
}

// Property: the instance's opening costs are exactly the weighted FDC, so
// they inherit its monotonicity — loading a node strictly raises the cost
// of opening it again and never touches other nodes' costs.
func TestBuildInstanceOpenCostProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPlanner(70)
	for iter := 0; iter < 100; iter++ {
		topo, nodes := randomCluster(rng, 1)
		in := p.BuildInstance(topo, nodes)
		victim := rng.Intn(len(nodes))
		if nodes[victim].Used >= nodes[victim].Capacity {
			continue
		}
		before := in.OpenCost[victim]
		nodes[victim].Used++
		in2 := p.BuildInstance(topo, nodes)
		if !(in2.OpenCost[victim] > before) {
			t.Fatalf("iter %d: open cost %v -> %v after loading node %d", iter, before, in2.OpenCost[victim], victim)
		}
		for i := range nodes {
			if i != victim && in2.OpenCost[i] != in.OpenCost[i] {
				t.Fatalf("iter %d: loading node %d changed node %d's open cost", iter, victim, i)
			}
		}
	}
}

// Property: RandomPlace returns at most k distinct non-full nodes in
// ascending order — the baseline must respect capacity too.
func TestRandomPlaceNoOverflowProperty(t *testing.T) {
	prop := func(seed int64, kRaw, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%10) + 1
		k := int(kRaw % 12)
		nodes := make([]NodeState, n)
		free := 0
		for i := range nodes {
			capacity := 1 + rng.Intn(4)
			nodes[i] = NodeState{Used: rng.Intn(capacity + 1), Capacity: capacity}
			if nodes[i].Used < capacity {
				free++
			}
		}
		chosen := RandomPlace(nodes, k, rng)
		want := k
		if free < want {
			want = free
		}
		if len(chosen) != want {
			return false
		}
		for i, c := range chosen {
			if nodes[c].Used >= nodes[c].Capacity {
				return false
			}
			if i > 0 && chosen[i-1] >= c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
