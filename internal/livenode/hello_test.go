package livenode

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Bindings from the hello (DESIGN.md §11.1): every link introduces its two
// ends by roster index once, as it comes up, and that alone fills the roster
// ↔ address table.

// memnetNodes starts n parked nodes (T0 one hour) on one memnet network and
// one virtual clock; start(i, addr) starts, or restarts, node i at addr.
type memnetNodes struct {
	mn    *memnet.Network
	clk   *sim.VClock
	nodes []*Node
	regs  []*telemetry.Registry
	start func(i int, addr string)
}

func newMemnetNodes(t *testing.T, n int) *memnetNodes {
	t.Helper()
	idents, accounts := testRoster(n)
	epoch := time.Unix(1700000000, 0)
	m := &memnetNodes{clk: sim.NewVClock(epoch), nodes: make([]*Node, n), regs: make([]*telemetry.Registry, n)}
	m.mn = memnet.New(1, m.clk.Now)
	m.start = func(i int, addr string) {
		t.Helper()
		if m.regs[i] == nil {
			m.regs[i] = telemetry.NewRegistry()
		}
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Hour},
			GenesisSeed: 42,
			Epoch:       epoch,
			Clock:       m.clk,
			Telemetry:   m.regs[i],
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				return m.mn.Listen(addr, h)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		m.nodes[i] = node
	}
	for i := range m.nodes {
		m.start(i, fmt.Sprintf("node%02d", i))
	}
	t.Cleanup(func() {
		for _, node := range m.nodes {
			node.Close()
		}
	})
	return m
}

// table copies node n's roster ↔ address table.
func (n *Node) table() ([]string, map[string]int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	idx := make(map[string]int, len(n.idxOf))
	for a, i := range n.idxOf {
		idx[a] = i
	}
	return append([]string(nil), n.addrOf...), idx
}

// bindsAll reports whether node i's table binds every other node to its
// address, and nothing else.
func bindsAll(nodes []*Node, i int) bool {
	addr, idx := nodes[i].table()
	for j, o := range nodes {
		want := o.Addr()
		if j == i {
			want = ""
		}
		if addr[j] != want || (j != i && idx[want] != j) {
			return false
		}
	}
	return len(idx) == len(nodes)-1
}

// helloSpy wraps a node's handler and records every sender whose frame was
// dispatched before its hello.
type helloSpy struct {
	p2p.Greeter
	mu      sync.Mutex
	greeted map[string]bool
	framed  map[string]bool
	early   []string
}

func (s *helloSpy) HandleHello(from string, hello []byte) {
	s.mu.Lock()
	s.greeted[from] = true
	s.mu.Unlock()
	s.Greeter.HandleHello(from, hello)
}

func (s *helloSpy) HandleFrame(from string, ft byte, payload []byte) {
	s.mu.Lock()
	if !s.greeted[from] {
		s.early = append(s.early, from)
	}
	s.framed[from] = true
	s.mu.Unlock()
	s.Greeter.HandleFrame(from, ft, payload)
}

func TestHelloBindsEveryPeer(t *testing.T) {
	// ConnectAll's pattern: each node dials its higher-indexed peers in one
	// call. The hellos ride on Connect, so every table is full before the
	// first delivery, with no event of their own.
	t.Run("memnet", func(t *testing.T) {
		const n = 16
		m := newMemnetNodes(t, n)
		for i := range m.nodes {
			var addrs []string
			for j := i + 1; j < n; j++ {
				addrs = append(addrs, m.nodes[j].Addr())
			}
			if err := m.nodes[i].Connect(addrs...); err != nil {
				t.Fatal(err)
			}
		}
		for i := range m.nodes {
			if !bindsAll(m.nodes, i) {
				addr, idx := m.nodes[i].table()
				t.Fatalf("node %d after connecting: table %v / %v, want all %d peers", i, addr, idx, n-1)
			}
			snap := m.regs[i].Snapshot()
			if g := snap.Gauge("livenode.roster.bound"); g != n-1 {
				t.Errorf("node %d: roster.bound = %d, want %d", i, g, n-1)
			}
			// Each one-byte hello is booked as a 6-byte frame of the data plane.
			if got, want := snap.Counter("livenode.wire.data_bytes"), uint64((n-1)*6); got != want {
				t.Errorf("node %d booked %d hello bytes, want %d", i, got, want)
			}
		}
		connects := 0
		for _, e := range m.mn.Events() {
			switch {
			case e.Kind == memnet.EvDeliver:
				t.Fatalf("a frame was delivered while connecting: %v", e)
			case e.Kind == memnet.EvConnect:
				connects++
			case e.Frame == p2p.FrameHello:
				t.Fatalf("a hello became a memnet event: %v", e)
			}
		}
		if connects != n*(n-1)/2 {
			t.Fatalf("%d connect events, want %d", connects, n*(n-1)/2)
		}
	})

	// Three nodes over TCP: 0 dials 1, 2 dials 0, and 1 and 2 dial each other
	// at once. Each end binds the other before any frame of the link is
	// dispatched, whichever end dialled and whichever connection survived.
	t.Run("tcp", func(t *testing.T) {
		const n = 3
		idents, accounts := testRoster(n)
		nodes := make([]*Node, n)
		spies := make([]*helloSpy, n)
		for i := range nodes {
			node, err := New(Config{
				Identity:    idents[i],
				Accounts:    accounts,
				PoS:         pos.Params{M: pos.DefaultM, T0: time.Hour},
				GenesisSeed: 42,
				Epoch:       time.Now(),
				NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
					spies[i] = &helloSpy{Greeter: h.(p2p.Greeter), greeted: map[string]bool{}, framed: map[string]bool{}}
					return p2p.Listen("127.0.0.1:0", spies[i])
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { node.Close() })
			nodes[i] = node
		}
		dial := func(from, to int) {
			if err := nodes[from].Connect(nodes[to].Addr()); err != nil {
				t.Error(err)
			}
		}
		dial(0, 1)
		dial(2, 0)
		var wg sync.WaitGroup
		for _, d := range [][2]int{{1, 2}, {2, 1}} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dial(d[0], d[1])
			}()
		}
		wg.Wait()
		// Until the simultaneous dial has settled, frames on the losing
		// connection are lost: keep sending until every link carried one
		// each way.
		heardAll := func() bool {
			for _, node := range nodes {
				for _, p := range node.net.Peers() {
					_ = node.net.Send(p, p2p.FrameRepairProbe, nil) // repair is off: ignored
				}
			}
			time.Sleep(5 * time.Millisecond)
			for _, s := range spies {
				s.mu.Lock()
				heard := len(s.framed)
				s.mu.Unlock()
				if heard < n-1 {
					return false
				}
			}
			return true
		}
		deadline := time.Now().Add(5 * time.Second)
		for !heardAll() {
			if time.Now().After(deadline) {
				t.Fatal("frames did not flow both ways on every link")
			}
		}
		for i, s := range spies {
			s.mu.Lock()
			early := s.early
			s.mu.Unlock()
			if len(early) != 0 {
				t.Errorf("node %d dispatched frames from %v before their hellos", i, early)
			}
			if !bindsAll(nodes, i) {
				addr, idx := nodes[i].table()
				t.Errorf("node %d: table %v / %v, want both peers", i, addr, idx)
			}
		}
	})
}

func TestHelloRebindsOneToOne(t *testing.T) {
	// One address speaks for one node, and an index follows its node to a
	// new address. A hello that names no peer — this node's own index, one
	// past the roster, or not one uvarint — binds nothing and books nothing.
	t.Run("table", func(t *testing.T) {
		fc := newFetchCluster(t, 4, nil)
		a := fc.nodes[0]
		fc.forget(0, 1, 2, 3)
		booked := counter(a.reg, "livenode.wire.data_bytes")
		bound := 0
		check := func(when string, wantAddr []string, wantIdx map[string]int) {
			t.Helper()
			addr, idx := a.table()
			if !reflect.DeepEqual(addr, wantAddr) || !reflect.DeepEqual(idx, wantIdx) {
				t.Fatalf("%s: table %v / %v, want %v / %v", when, addr, idx, wantAddr, wantIdx)
			}
			if got := counter(a.reg, "livenode.wire.data_bytes") - booked; got != uint64(6*bound) {
				t.Fatalf("%s: %d hello bytes booked, want %d for %d bindings", when, got, 6*bound, bound)
			}
		}
		a.handleHello("x", hello(2))
		bound++
		check("first hello", []string{"", "", "x", ""}, map[string]int{"x": 2})
		a.handleHello("y", hello(2))
		bound++
		check("same index, new address", []string{"", "", "y", ""}, map[string]int{"y": 2})
		for _, h := range [][]byte{hello(0), hello(4), hello(1 << 40), nil, {2, 0}, {0xFF}, append(hello(1), 1)} {
			a.handleHello("z", h)
		}
		check("hellos that name no peer", []string{"", "", "y", ""}, map[string]int{"y": 2})
		a.handleHello("w", hello(1))
		bound++
		check("a second node", []string{"", "w", "y", ""}, map[string]int{"w": 1, "y": 2})
		a.handleHello("y", hello(1)) // y moves to 1 and w is unbound
		bound++
		check("an address claiming a second index", []string{"", "y", "", ""}, map[string]int{"y": 1})
		for i := uint64(1); i < 4; i++ {
			a.handleHello("y", hello(i))
			bound++
		}
		check("one address claiming every index", []string{"", "", "", "y"}, map[string]int{"y": 3})
		if g := a.reg.Snapshot().Gauge("livenode.roster.bound"); g != 1 {
			t.Fatalf("roster.bound = %d, want 1", g)
		}
	})

	// A restarted node starts with an empty table and is bound again the
	// moment it reconnects; at a new address its peers move its index there.
	t.Run("restart", func(t *testing.T) {
		m := newMemnetNodes(t, 3)
		for i, to := range [][]string{{"node01", "node02"}, {"node02"}} {
			if err := m.nodes[i].Connect(to...); err != nil {
				t.Fatal(err)
			}
		}
		restart := func(addr string) {
			t.Helper()
			if err := m.nodes[2].Kill(); err != nil {
				t.Fatal(err)
			}
			m.start(2, addr)
			if addr, idx := m.nodes[2].table(); len(idx) != 0 || addr[0] != "" || addr[1] != "" {
				t.Fatalf("restarted node starts with table %v / %v", addr, idx)
			}
			if err := m.nodes[2].Connect("node00", "node01"); err != nil {
				t.Fatal(err)
			}
			for i := range m.nodes {
				if !bindsAll(m.nodes, i) {
					addr, idx := m.nodes[i].table()
					t.Fatalf("node %d after node 2 came back at %s: table %v / %v", i, m.nodes[2].Addr(), addr, idx)
				}
			}
		}
		restart("node02")
		restart("node02-moved")
		if _, idx := m.nodes[0].table(); len(idx) != 2 {
			t.Fatalf("the old address still maps to a roster index: %v", idx)
		}
	})
}
