package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
)

// linePlacements lays nodes on a horizontal line with the given spacing, so
// hop counts are predictable.
func linePlacements(n int, spacing float64) []geo.Placement {
	out := make([]geo.Placement, n)
	for i := range out {
		out[i] = geo.Placement{Home: geo.Point{X: float64(i) * spacing, Y: 0}, Range: 0}
	}
	return out
}

func lineRadio(n int, cfg RadioConfig) *Radio {
	cfg.Field = geo.Field{Width: 10000, Height: 100}
	cfg.Placements = linePlacements(n, 50) // 50 m spacing, 70 m range: only adjacent links
	cfg.CommRange = 70
	return NewRadio(cfg)
}

func TestTopologyLineHops(t *testing.T) {
	pls := linePlacements(5, 50)
	topo := NewTopology(HomePositions(pls), 70, nil)
	tests := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 4, 4}, {1, 3, 2}, {4, 0, 4},
	}
	for _, tt := range tests {
		if got := topo.Hops(tt.a, tt.b); got != tt.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestTopologyNextHopFollowsShortestPath(t *testing.T) {
	pls := linePlacements(5, 50)
	topo := NewTopology(HomePositions(pls), 70, nil)
	cur := NodeID(0)
	var path []NodeID
	for cur != 4 {
		cur = topo.NextHop(cur, 4)
		path = append(path, cur)
	}
	want := []NodeID{1, 2, 3, 4}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestTopologyDownNodeDisconnects(t *testing.T) {
	pls := linePlacements(3, 50)
	down := []bool{false, true, false}
	topo := NewTopology(HomePositions(pls), 70, down)
	if topo.Reachable(0, 2) {
		t.Fatal("nodes 0 and 2 reachable through a down relay")
	}
	if topo.Connected(down) {
		t.Fatal("partitioned graph reported connected")
	}
	if !topo.Connected([]bool{false, true, true}) {
		t.Fatal("single up node must count as connected")
	}
}

// TestCliqueMatchesDenseTopology pins NewClique to the topology it
// replaces: every co-located node within range, routes computed by BFS.
// The O(1) clique must answer every query identically without ever
// materializing the O(n²) tables.
func TestCliqueMatchesDenseTopology(t *testing.T) {
	const n = 17
	dense := NewTopology(make([]geo.Point, n), 1, nil)
	clique := NewClique(n)
	if clique.N() != n {
		t.Fatalf("clique.N() = %d, want %d", clique.N(), n)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := clique.Hops(NodeID(a), NodeID(b)), dense.Hops(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("Hops(%d,%d) = %d, dense says %d", a, b, got, want)
			}
			if !clique.Reachable(NodeID(a), NodeID(b)) {
				t.Fatalf("Reachable(%d,%d) = false", a, b)
			}
			next := clique.NextHop(NodeID(a), NodeID(b))
			if a == b && next != NodeID(a) {
				t.Fatalf("NextHop(%d,%d) = %d, want self", a, b, next)
			}
			if a != b && next != NodeID(b) {
				t.Fatalf("NextHop(%d,%d) = %d, want direct hop %d", a, b, next, b)
			}
		}
		if got, want := len(clique.Neighbors(NodeID(a))), len(dense.Neighbors(NodeID(a))); got != want {
			t.Fatalf("node %d has %d neighbors, dense says %d", a, got, want)
		}
		for _, v := range clique.Neighbors(NodeID(a)) {
			if v == NodeID(a) {
				t.Fatalf("node %d lists itself as neighbor", a)
			}
		}
	}
	if !clique.Connected(nil) {
		t.Fatal("clique reported disconnected")
	}
}

func TestUnicastDelayAndAccounting(t *testing.T) {
	r := lineRadio(5, RadioConfig{PerHopDelay: 10 * time.Millisecond, Bandwidth: 100_000})
	delay, ok := r.Send(0, 4, 1000)
	if !ok {
		t.Fatal("Send over a connected line failed")
	}
	// Path 0-1-2-3-4: four hops of 10 ms propagation + 10 ms transmission.
	if want := 80 * time.Millisecond; delay != want {
		t.Errorf("delay %v, want %v (4 hops x (10ms + 1000 B / 100 kB/s))", delay, want)
	}
	if got := r.Hops(0, 4); got != 4 {
		t.Errorf("Hops(0,4) = %d, want 4", got)
	}
}

func TestUnicastEndToEndAccounting(t *testing.T) {
	// The radio bills only the sender (the paper's model); forwarders and
	// the receiver pay nothing.
	r := lineRadio(5, RadioConfig{PerHopDelay: 10 * time.Millisecond})
	if _, ok := r.Send(0, 4, 1000); !ok {
		t.Fatal("Send failed")
	}
	if _, ok := r.Send(4, 3, 10); !ok {
		t.Fatal("Send failed")
	}
	tx := r.Bytes()
	for i, wantTx := range []uint64{1000, 0, 0, 0, 10} {
		if tx[i] != wantTx {
			t.Errorf("tx[%d] = %d, want %d", i, tx[i], wantTx)
		}
	}
	tx[0] = 0
	if again := r.Bytes(); again[0] != 1000 {
		t.Fatal("Bytes returned the radio's own slice")
	}
}

func TestUnicastBandwidthDelay(t *testing.T) {
	r := lineRadio(2, RadioConfig{PerHopDelay: 10 * time.Millisecond, Bandwidth: 1 << 20}) // 1 MiB/s
	delay, _ := r.Send(0, 1, 1<<20)                                                        // 1 MiB
	if want := 10*time.Millisecond + time.Second; delay != want {
		t.Errorf("delay %v, want %v", delay, want)
	}
}

func TestUnicastUnreachable(t *testing.T) {
	r := NewRadio(RadioConfig{
		Field:      geo.Field{Width: 1000, Height: 100},
		Placements: []geo.Placement{{Home: geo.Point{X: 0}}, {Home: geo.Point{X: 500}}},
		CommRange:  70,
	})
	if _, ok := r.Send(0, 1, 10); ok {
		t.Fatal("Send to an unreachable node succeeded")
	}
	if tx := r.Bytes(); tx[0] != 0 {
		t.Fatalf("an undeliverable frame was billed: tx %v", tx)
	}
}

func TestSetPositionsRebuildsTopology(t *testing.T) {
	// Node 2 wanders a kilometre; a mobility step takes it out of range of
	// the line, while the home graph placement plans on stays as it was.
	pls := linePlacements(3, 50)
	pls[2].Range = 1000
	r := NewRadio(RadioConfig{Field: geo.Field{Width: 10000, Height: 100}, Placements: pls, CommRange: 70, Seed: 2})
	if r.Hops(0, 2) != 2 {
		t.Fatal("line should be connected initially")
	}
	r.Step()
	if r.Hops(0, 2) != InfHops {
		t.Fatal("node 2 moved out of range but is still reachable")
	}
	if r.Home().Hops(0, 2) != 2 {
		t.Fatal("a mobility step changed the home graph")
	}
	if r.Hops(0, 1) != 1 {
		t.Fatal("nodes with no mobility range moved")
	}
}

func TestMobilityStepStaysInRange(t *testing.T) {
	field := geo.DefaultField()
	rng := rand.New(rand.NewSource(9))
	pls := geo.PlaceNodes(field, 20, 30, rng)
	mob := &Mobility{Field: field, Placements: pls, RNG: rng}
	for epoch := 0; epoch < 10; epoch++ {
		pos := mob.Step()
		if len(pos) != 20 {
			t.Fatalf("Step returned %d positions", len(pos))
		}
		for i, p := range pos {
			if d := geo.Dist(pls[i].Home, p); d > 30+1e-9 && field.Contains(pls[i].Home) {
				// Clamping can only pull points closer to the field, which
				// never increases distance beyond the range for in-field homes.
				t.Fatalf("node %d moved %v m from home, beyond 30 m range", i, d)
			}
		}
	}
}

// Property: on random connected layouts, hop counts are symmetric and the
// next-hop table walks shortest paths (each step reduces the distance by
// exactly one).
func TestRoutingConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		pls, err := geo.PlaceNodesConnected(geo.DefaultField(), n, 30, 70, rng, 100)
		if err != nil {
			t.Fatal(err)
		}
		topo := NewTopology(HomePositions(pls), 70, nil)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				ha := topo.Hops(NodeID(a), NodeID(b))
				hb := topo.Hops(NodeID(b), NodeID(a))
				if ha != hb {
					t.Fatalf("asymmetric hops %d vs %d", ha, hb)
				}
				if a == b {
					continue
				}
				next := topo.NextHop(NodeID(a), NodeID(b))
				if next < 0 {
					t.Fatalf("connected pair (%d,%d) has no next hop", a, b)
				}
				if topo.Hops(next, NodeID(b)) != ha-1 {
					t.Fatalf("next hop does not reduce distance: %d -> %d", ha, topo.Hops(next, NodeID(b)))
				}
			}
		}
	}
}
