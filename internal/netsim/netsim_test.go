package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

// testMsg is a trivial message for tests.
type testMsg struct {
	size int
	kind string
	body string
}

func (m testMsg) Size() int    { return m.size }
func (m testMsg) Kind() string { return m.kind }

// linePlacements lays nodes on a horizontal line with the given spacing, so
// hop counts are predictable.
func linePlacements(n int, spacing float64) []geo.Placement {
	out := make([]geo.Placement, n)
	for i := range out {
		out[i] = geo.Placement{Home: geo.Point{X: float64(i) * spacing, Y: 0}, Range: 0}
	}
	return out
}

func lineNetwork(t *testing.T, n int, cfg Config) (*sim.VClock, *Network) {
	t.Helper()
	clock := sim.NewVClock(time.Time{})
	pls := linePlacements(n, 50) // 50 m spacing, 70 m range: only adjacent links
	nw := New(clock, geo.Field{Width: 10000, Height: 100}, pls, 70, cfg, rand.New(rand.NewSource(1)))
	return clock, nw
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
	cfg := Config{PerHopDelay: 10 * time.Millisecond, ChargeForwarding: true}
	clock, nw := lineNetwork(t, 5, cfg)
	var gotFrom NodeID
	var gotAt time.Duration
	nw.Attach(4, HandlerFunc(func(from NodeID, msg Message) {
		gotFrom = from
		gotAt = clock.Elapsed()
	}))
	ok := nw.Unicast(0, 4, testMsg{size: 1000, kind: "data"})
	if !ok {
		t.Fatal("Unicast returned false")
	}
	clock.Advance(time.Hour)
	if gotFrom != 0 {
		t.Errorf("from = %d, want 0", gotFrom)
	}
	if want := 40 * time.Millisecond; gotAt != want {
		t.Errorf("delivered at %v, want %v (4 hops x 10ms)", gotAt, want)
	}
	st := nw.Stats()
	// Path 0-1-2-3-4: nodes 0..3 transmit, 1..4 receive.
	for i, wantTx := range []uint64{1000, 1000, 1000, 1000, 0} {
		if st.TxBytes[i] != wantTx {
			t.Errorf("TxBytes[%d] = %d, want %d", i, st.TxBytes[i], wantTx)
		}
	}
	for i, wantRx := range []uint64{0, 1000, 1000, 1000, 1000} {
		if st.RxBytes[i] != wantRx {
			t.Errorf("RxBytes[%d] = %d, want %d", i, st.RxBytes[i], wantRx)
		}
	}
	if st.KindBytes["data"] != 4000 {
		t.Errorf(`KindBytes["data"] = %d, want 4000`, st.KindBytes["data"])
	}
}

func TestUnicastEndToEndAccounting(t *testing.T) {
	// Default accounting bills only the endpoints (the paper's model);
	// forwarders relay for free but latency stays per-hop.
	cfg := Config{PerHopDelay: 10 * time.Millisecond}
	clock, nw := lineNetwork(t, 5, cfg)
	var gotAt time.Duration
	nw.Attach(4, HandlerFunc(func(from NodeID, msg Message) { gotAt = clock.Elapsed() }))
	if !nw.Unicast(0, 4, testMsg{size: 1000, kind: "data"}) {
		t.Fatal("Unicast returned false")
	}
	clock.Advance(time.Hour)
	if want := 40 * time.Millisecond; gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
	st := nw.Stats()
	for i, wantTx := range []uint64{1000, 0, 0, 0, 0} {
		if st.TxBytes[i] != wantTx {
			t.Errorf("TxBytes[%d] = %d, want %d", i, st.TxBytes[i], wantTx)
		}
	}
	for i, wantRx := range []uint64{0, 0, 0, 0, 1000} {
		if st.RxBytes[i] != wantRx {
			t.Errorf("RxBytes[%d] = %d, want %d", i, st.RxBytes[i], wantRx)
		}
	}
	if st.KindBytes["data"] != 1000 {
		t.Errorf(`KindBytes["data"] = %d, want 1000`, st.KindBytes["data"])
	}
}

func TestUnicastBandwidthDelay(t *testing.T) {
	cfg := Config{PerHopDelay: 10 * time.Millisecond, Bandwidth: 1 << 20} // 1 MiB/s
	clock, nw := lineNetwork(t, 2, cfg)
	var gotAt time.Duration
	nw.Attach(1, HandlerFunc(func(from NodeID, msg Message) { gotAt = clock.Elapsed() }))
	nw.Unicast(0, 1, testMsg{size: 1 << 20, kind: "data"}) // 1 MiB
	clock.Advance(time.Hour)
	want := 10*time.Millisecond + time.Second
	if gotAt != want {
		t.Errorf("delivered at %v, want %v", gotAt, want)
	}
}

func TestUnicastToSelf(t *testing.T) {
	clock, nw := lineNetwork(t, 2, DefaultConfig())
	delivered := false
	nw.Attach(0, HandlerFunc(func(from NodeID, msg Message) { delivered = true }))
	nw.Unicast(0, 0, testMsg{size: 10, kind: "ctrl"})
	clock.Advance(time.Hour)
	if !delivered {
		t.Fatal("self-unicast not delivered")
	}
	if nw.Stats().TotalTxBytes() != 0 {
		t.Fatal("self-unicast must not be charged")
	}
}

func TestUnicastUnreachable(t *testing.T) {
	clock, nw := lineNetwork(t, 3, DefaultConfig())
	nw.SetDown(1, true)
	ok := nw.Unicast(0, 2, testMsg{size: 10, kind: "ctrl"})
	if ok {
		t.Fatal("Unicast to unreachable node returned true")
	}
	if nw.Stats().Unreachable != 1 {
		t.Fatalf("Unreachable = %d, want 1", nw.Stats().Unreachable)
	}
	clock.Advance(time.Hour)
}

func TestBroadcastFloodsComponent(t *testing.T) {
	clock, nw := lineNetwork(t, 4, Config{PerHopDelay: 10 * time.Millisecond})
	got := make(map[NodeID]time.Duration)
	for i := 0; i < 4; i++ {
		id := NodeID(i)
		nw.Attach(id, HandlerFunc(func(from NodeID, msg Message) { got[id] = clock.Elapsed() }))
	}
	nw.Broadcast(0, testMsg{size: 100, kind: "block"})
	clock.Advance(time.Hour)
	if len(got) != 3 {
		t.Fatalf("delivered to %d nodes, want 3 (not the source)", len(got))
	}
	for id, at := range got {
		want := time.Duration(id) * 10 * time.Millisecond
		if at != want {
			t.Errorf("node %d received at %v, want %v", id, at, want)
		}
	}
	st := nw.Stats()
	// Flooding: all 4 nodes transmit once.
	for i := 0; i < 4; i++ {
		if st.TxBytes[i] != 100 {
			t.Errorf("TxBytes[%d] = %d, want 100", i, st.TxBytes[i])
		}
	}
}

func TestBroadcastSkipsDownAndDisconnected(t *testing.T) {
	clock, nw := lineNetwork(t, 4, DefaultConfig())
	nw.SetDown(2, true) // splits {0,1} from {3}
	reached := make(map[NodeID]bool)
	for i := 0; i < 4; i++ {
		id := NodeID(i)
		nw.Attach(id, HandlerFunc(func(from NodeID, msg Message) { reached[id] = true }))
	}
	nw.Broadcast(0, testMsg{size: 10, kind: "block"})
	clock.Advance(time.Hour)
	if !reached[1] || reached[2] || reached[3] {
		t.Fatalf("reached = %v, want only node 1", reached)
	}
}

func TestDropInjection(t *testing.T) {
	clock := sim.NewVClock(time.Time{})
	pls := linePlacements(2, 50)
	cfg := Config{PerHopDelay: time.Millisecond, DropProb: 1.0}
	nw := New(clock, geo.Field{Width: 1000, Height: 100}, pls, 70, cfg, rand.New(rand.NewSource(1)))
	delivered := false
	nw.Attach(1, HandlerFunc(func(from NodeID, msg Message) { delivered = true }))
	if nw.Unicast(0, 1, testMsg{size: 10, kind: "ctrl"}) {
		t.Fatal("Unicast with DropProb=1 returned true")
	}
	clock.Advance(time.Hour)
	if delivered {
		t.Fatal("dropped message was delivered")
	}
	if nw.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", nw.Stats().Dropped)
	}
}

func TestLinkFilterPartition(t *testing.T) {
	_, nw := lineNetwork(t, 4, DefaultConfig())
	// Sever the 1-2 link: {0,1} | {2,3}.
	nw.SetLinkFilter(func(a, b NodeID) bool {
		return (a == 1 && b == 2) || (a == 2 && b == 1)
	})
	if nw.Topology().Reachable(0, 3) {
		t.Fatal("partitioned nodes still reachable")
	}
	nw.SetLinkFilter(nil)
	if !nw.Topology().Reachable(0, 3) {
		t.Fatal("healed partition still unreachable")
	}
}

func TestSetPositionsRebuildsTopology(t *testing.T) {
	_, nw := lineNetwork(t, 3, DefaultConfig())
	if !nw.Topology().Reachable(0, 2) {
		t.Fatal("line should be connected initially")
	}
	// Move node 2 far away.
	pos := []geo.Point{{X: 0}, {X: 50}, {X: 5000}}
	nw.SetPositions(pos)
	if nw.Topology().Reachable(0, 2) {
		t.Fatal("node 2 moved out of range but still reachable")
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

func TestStatsAverages(t *testing.T) {
	s := newStats(4)
	s.TxBytes[0] = 100
	s.TxBytes[1] = 300
	if got := s.TotalTxBytes(); got != 400 {
		t.Fatalf("TotalTxBytes = %d, want 400", got)
	}
	if got := s.AvgTxBytesPerNode(); got != 100 {
		t.Fatalf("AvgTxBytesPerNode = %v, want 100", got)
	}
	empty := newStats(0)
	if empty.AvgTxBytesPerNode() != 0 {
		t.Fatal("empty stats average should be 0")
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

// Property: a flooded broadcast reaches exactly the source's component.
func TestBroadcastCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 10; trial++ {
		n := 5 + rng.Intn(20)
		clock := sim.NewVClock(time.Time{})
		pls := geo.PlaceNodes(geo.DefaultField(), n, 0, rng) // may be disconnected
		nw := New(clock, geo.DefaultField(), pls, 70, Config{PerHopDelay: time.Millisecond}, rng)
		got := make(map[NodeID]bool)
		for i := 0; i < n; i++ {
			id := NodeID(i)
			nw.Attach(id, HandlerFunc(func(NodeID, Message) { got[id] = true }))
		}
		nw.Broadcast(0, testMsg{size: 10, kind: "x"})
		clock.Advance(time.Hour)
		topo := nw.Topology()
		for i := 1; i < n; i++ {
			want := topo.Reachable(0, NodeID(i))
			if got[NodeID(i)] != want {
				t.Fatalf("node %d: got=%v reachable=%v", i, got[NodeID(i)], want)
			}
		}
	}
}
