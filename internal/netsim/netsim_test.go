package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"

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
	topo := NewTopology(HomePositions(pls), 70)
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

// TestCliqueMatchesDenseTopology pins NewClique to the topology it
// replaces: every co-located node within range, hops computed by BFS.
// The clique must answer every query identically without materializing
// the O(n²) matrix.
func TestCliqueMatchesDenseTopology(t *testing.T) {
	const n = 17
	dense := NewTopology(make([]geo.Point, n), 1)
	clique := NewClique(n)
	if clique.N() != n || dense.N() != n {
		t.Fatalf("N() = %d (clique), %d (dense), want %d", clique.N(), dense.N(), n)
	}
	if !clique.Clique() || dense.Clique() {
		t.Fatalf("Clique() = %v (clique), %v (dense)", clique.Clique(), dense.Clique())
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if got, want := clique.Hops(NodeID(a), NodeID(b)), dense.Hops(NodeID(a), NodeID(b)); got != want {
				t.Fatalf("Hops(%d,%d) = %d, dense says %d", a, b, got, want)
			}
		}
	}
}

// TestCliqueHoldsNothing: a clique is its node count. Every node stack of a
// TCP or memnet cluster holds one, so it must not grow with n.
func TestCliqueHoldsNothing(t *testing.T) {
	var topo *Topology
	if allocs := testing.AllocsPerRun(100, func() { topo = NewClique(1000) }); allocs != 1 {
		t.Fatalf("NewClique(1000) makes %.1f allocations, want 1 (the Topology itself)", allocs)
	}
	if size := unsafe.Sizeof(*topo); size >= 64 {
		t.Fatalf("a Topology is %d B, want under 64", size)
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

// TestMobilityStepStaysInRange reads Radio.Step's moves through the hop
// matrix. A fixed anchor sits in the middle of the field with a ring of
// nodes of 30 m mobility range around it at 39 m, whose every step stays
// within 69 m and so within radio range, and a ring at 101 m, whose every
// step stays at 71 m or more, outside it. A pair of ring nodes 70 m apart
// must link in some epochs and not in others: the nodes do move.
func TestMobilityStepStaysInRange(t *testing.T) {
	const rings = 8
	centre := geo.Point{X: 150, Y: 150}
	pls := []geo.Placement{{Home: centre}}
	for _, radius := range []float64{39, 101} {
		for k := 0; k < rings; k++ {
			theta := 2 * math.Pi * float64(k) / rings
			home := geo.Point{X: centre.X + radius*math.Cos(theta), Y: centre.Y + radius*math.Sin(theta)}
			pls = append(pls, geo.Placement{Home: home, Range: 30})
		}
	}
	pls = append(pls, // a pair 70 m apart, away from the rings
		geo.Placement{Home: geo.Point{X: 10, Y: 280}, Range: 30},
		geo.Placement{Home: geo.Point{X: 80, Y: 280}, Range: 30})
	r := NewRadio(RadioConfig{Field: geo.DefaultField(), Placements: pls, CommRange: 70, Seed: 9})
	linked := map[bool]int{}
	for epoch := 0; epoch < 200; epoch++ {
		r.Step()
		for k := 1; k <= rings; k++ {
			if h := r.Hops(0, k); h != 1 {
				t.Fatalf("epoch %d: node %d, 39 m from the anchor with a 30 m range, is %d hops away", epoch, k, h)
			}
			if h := r.Hops(0, rings+k); h == 1 {
				t.Fatalf("epoch %d: node %d, 101 m from the anchor with a 30 m range, is in radio range", epoch, rings+k)
			}
		}
		linked[r.Hops(len(pls)-2, len(pls)-1) == 1]++
	}
	if linked[true] == 0 || linked[false] == 0 {
		t.Fatalf("the 70 m pair linked in %d of 200 epochs: mobility steps do not move the nodes", linked[true])
	}
}

// TestHopsMatchFloydWarshall checks the BFS hop matrix against
// Floyd–Warshall over the same disc graph on 20 random fields: connected
// layouts, whose long paths cross the field, alternating with uniform
// ones, which at these densities are split, so unreachable pairs are
// covered too.
func TestHopsMatchFloydWarshall(t *testing.T) {
	const commRange, inf = 70, math.MaxInt32
	rng := rand.New(rand.NewSource(42))
	var multiHop, unreachable int
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(30)
		pls := geo.PlaceNodes(geo.DefaultField(), n, 30, rng)
		if trial%2 == 0 {
			var err error
			if pls, err = PlaceConnected(geo.DefaultField(), n, 30, commRange, rng); err != nil {
				t.Fatal(err)
			}
		}
		pos := HomePositions(pls)
		d := make([][]int64, n)
		for i := range d {
			d[i] = make([]int64, n)
			for j := range d[i] {
				switch {
				case i == j:
				case geo.Dist(pos[i], pos[j]) <= commRange:
					d[i][j] = 1
				default:
					d[i][j] = inf
				}
			}
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					d[i][j] = min(d[i][j], d[i][k]+d[k][j])
				}
			}
		}
		topo := NewTopology(pos, commRange)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := int(min(d[a][b], InfHops))
				if got := topo.Hops(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("trial %d (n=%d): Hops(%d,%d) = %d, Floyd-Warshall says %d", trial, n, a, b, got, want)
				}
				switch {
				case want == InfHops:
					unreachable++
				case want > 1:
					multiHop++
				}
			}
		}
	}
	if multiHop == 0 || unreachable == 0 {
		t.Fatalf("fields covered %d multi-hop and %d unreachable pairs, want both", multiHop, unreachable)
	}
}

func TestPlaceConnected(t *testing.T) {
	f := geo.DefaultField()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{10, 20, 30, 50} {
		pl, err := PlaceConnected(f, n, 30, 70, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !connected(pl, 70) {
			t.Fatalf("n=%d: returned layout not connected", n)
		}
	}
}

func TestPlaceConnectedTrivialCases(t *testing.T) {
	f := geo.DefaultField()
	rng := rand.New(rand.NewSource(6))
	if pl, err := PlaceConnected(f, 0, 30, 70, rng); err != nil || len(pl) != 0 {
		t.Fatalf("n=0: pl=%v err=%v", pl, err)
	}
	if pl, err := PlaceConnected(f, 1, 30, 70, rng); err != nil || len(pl) != 1 {
		t.Fatalf("n=1: pl=%v err=%v", pl, err)
	}
}

func TestPlaceConnectedImpossible(t *testing.T) {
	// Zero radio range can never connect more than one node.
	f := geo.Field{Width: 1e6, Height: 1e6}
	rng := rand.New(rand.NewSource(7))
	if _, err := PlaceConnected(f, 5, 0, 0, rng); err == nil {
		t.Fatal("expected error for zero comm range")
	}
}

func TestPlaceConnectedSparse(t *testing.T) {
	// The growth fallback must connect even extremely sparse densities.
	f := geo.Field{Width: 1e5, Height: 1e5}
	rng := rand.New(rand.NewSource(8))
	pl, err := PlaceConnected(f, 20, 5, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !connected(pl, 50) {
		t.Fatal("sparse layout not connected")
	}
}

func TestConnectedIsolatedNode(t *testing.T) {
	pl := []geo.Placement{
		{Home: geo.Point{X: 0, Y: 0}},
		{Home: geo.Point{X: 10, Y: 0}},
		{Home: geo.Point{X: 1000, Y: 0}},
	}
	if connected(pl, 70) {
		t.Fatal("layout with isolated node reported connected")
	}
	if !connected(pl[:2], 70) {
		t.Fatal("close pair reported disconnected")
	}
}
