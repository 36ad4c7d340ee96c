package p2p

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// recorder collects frames thread-safely.
type recorder struct {
	mu     sync.Mutex
	frames []recorded
}

type recorded struct {
	from    string
	ft      byte
	payload []byte
}

func (r *recorder) HandleFrame(from string, ft byte, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, recorded{from, ft, append([]byte(nil), payload...)})
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

func (r *recorder) last() (recorded, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.frames) == 0 {
		return recorded{}, false
	}
	return r.frames[len(r.frames)-1], true
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met in time")
}

// listenPair starts two unconnected nodes.
func listenPair(t *testing.T) (*Node, *recorder, *Node, *recorder) {
	t.Helper()
	ra, rb := &recorder{}, &recorder{}
	a, err := Listen("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err := Listen("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, ra, b, rb
}

func newPair(t *testing.T) (*Node, *recorder, *Node, *recorder) {
	t.Helper()
	a, ra, b, rb := listenPair(t)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 1
	})
	return a, ra, b, rb
}

func TestConnectAndSend(t *testing.T) {
	a, _, b, rb := newPair(t)
	if err := a.Send(b.Addr(), FrameMeta, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return rb.count() == 1 })
	got, _ := rb.last()
	if got.ft != FrameMeta || !bytes.Equal(got.payload, []byte("hello")) {
		t.Fatalf("got %+v", got)
	}
	if got.from != a.Addr() {
		t.Fatalf("from = %s, want %s", got.from, a.Addr())
	}
}

func TestBidirectional(t *testing.T) {
	a, ra, b, _ := newPair(t)
	// The inbound side can also send back over the same link.
	if err := b.Send(a.Addr(), FrameData, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool { return ra.count() == 1 })
	got, _ := ra.last()
	if got.ft != FrameData || got.from != b.Addr() {
		t.Fatalf("got %+v", got)
	}
}

// TestSendReachesEveryPeer: a fan-out is one Send per peer of a Peers
// snapshot, every one with the same payload slice (frames are immutable after
// Send, so nothing is copied per peer); each leaf that dialled the center
// receives it.
func TestSendReachesEveryPeer(t *testing.T) {
	hub, _ := &recorder{}, 0
	center, err := Listen("127.0.0.1:0", hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { center.Close() })

	const n = 4
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		leaf, err := Listen("127.0.0.1:0", recs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { leaf.Close() })
		if err := leaf.Connect(center.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { return len(center.Peers()) == n })
	payload := []byte("to-everyone")
	for _, p := range center.Peers() {
		if err := center.Send(p, FrameMeta, payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, r := range recs {
			if r.count() != 1 {
				return false
			}
		}
		return true
	})
}

// TestPeersSortedSharedSnapshot pins Transport's Peers contract on TCP:
// the peers come sorted whatever order they connected in; a connect, a
// disconnect or Close shows in the next call and never in a snapshot handed
// out before it; and calls with no change between them share one slice.
// A goroutine reads each snapshot with no lock held, so under -race a change
// that edited one in place would be a reported race, too.
func TestPeersSortedSharedSnapshot(t *testing.T) {
	center, err := Listen("127.0.0.1:0", &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { center.Close() })
	leaves := make([]*Node, 5)
	for i := range leaves {
		if leaves[i], err = Listen("127.0.0.1:0", &recorder{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { leaves[i].Close() })
	}
	type held struct {
		step       string
		snap, copy []string
	}
	var kept []held
	var readers sync.WaitGroup
	check := func(step string, want []string) {
		t.Helper()
		got := center.Peers()
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: peers = %v, want %v", step, got, want)
		}
		if again := center.Peers(); len(got) > 0 && &again[0] != &got[0] {
			t.Fatalf("%s: two Peers() calls with no change between them returned different slices", step)
		}
		kept = append(kept, held{step, got, slices.Clone(got)})
		for _, h := range kept {
			if !slices.Equal(h.snap, h.copy) || !slices.IsSorted(h.snap) {
				t.Fatalf("%s: the snapshot taken at %q changed to %v, was %v", step, h.step, h.snap, h.copy)
			}
		}
		readers.Add(1)
		go func(snap []string) { // reads the snapshot as a relay would, unsynchronised with the steps below
			defer readers.Done()
			_ = slices.IsSorted(snap)
		}(got)
	}
	defer readers.Wait()

	var want []string
	check("fresh", want)
	for _, i := range []int{3, 0, 4} { // outbound connects, out of address order
		if err := center.Connect(leaves[i].Addr()); err != nil {
			t.Fatal(err)
		}
		want = append(want, leaves[i].Addr())
		check(fmt.Sprintf("dialled leaf %d", i), want)
	}
	for _, i := range []int{2, 1} { // inbound: registered by the accept loop
		if err := leaves[i].Connect(center.Addr()); err != nil {
			t.Fatal(err)
		}
		want = append(want, leaves[i].Addr())
		waitFor(t, 2*time.Second, func() bool { return len(center.Peers()) == len(want) })
		check(fmt.Sprintf("accepted leaf %d", i), want)
	}
	leaves[0].Close() // the center's reader sees EOF and unregisters it
	want = slices.DeleteFunc(want, func(a string) bool { return a == leaves[0].Addr() })
	waitFor(t, 2*time.Second, func() bool { return len(center.Peers()) == len(want) })
	check("leaf 0 closed", want)
	center.Close()
	check("center closed", nil)
}

func TestDuplicateConnectIsNoop(t *testing.T) {
	a, _, b, _ := newPair(t)
	for i := 0; i < 3; i++ {
		if err := a.Connect(b.Addr()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if len(a.Peers()) != 1 || len(b.Peers()) != 1 {
		t.Fatalf("peer counts: a=%d b=%d, want 1,1", len(a.Peers()), len(b.Peers()))
	}
}

// Connect registers the dialled peer before it returns: a Send on the next
// line reaches it, and the peer can answer the sender by address.
func TestSendRightAfterConnect(t *testing.T) {
	a, _, b, rb := listenPair(t)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := a.Peers(); len(got) != 1 || got[0] != b.Addr() {
		t.Fatalf("peers right after Connect = %v, want [%s]", got, b.Addr())
	}
	if err := a.Send(b.Addr(), FrameMeta, []byte("first")); err != nil {
		t.Fatalf("Send right after Connect: %v", err)
	}
	if err := a.Send(b.Addr(), FrameData, []byte("second")); err != nil {
		t.Fatalf("second Send right after Connect: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return rb.count() == 2 })
	if got, _ := rb.last(); got.from != a.Addr() {
		t.Fatalf("from = %s, want %s", got.from, a.Addr())
	}
}

// Two nodes that dial each other at the same moment each hold a connection
// they dialled and one they accepted. Both must settle on the same one —
// never on none — and traffic must flow both ways over it. One core rarely
// produces the collision from two racing Connect calls, so two subtests
// build its two orders by hand.
func TestSimultaneousDialKeepsOneConnection(t *testing.T) {
	// flows waits until each end holds one connection and a frame sent each
	// way has arrived. Until the higher address has seen the lower one's dial
	// it still writes to its own, losing, connection, and those frames are
	// dropped: keep sending.
	flows := func(t *testing.T, a *Node, ra *recorder, b *Node, rb *recorder) {
		t.Helper()
		waitFor(t, 2*time.Second, func() bool {
			if len(a.Peers()) != 1 || len(b.Peers()) != 1 {
				return false
			}
			_ = a.Send(b.Addr(), FrameMeta, []byte("a→b"))
			_ = b.Send(a.Addr(), FrameMeta, []byte("b→a"))
			return ra.count() > 0 && rb.count() > 0
		})
	}
	// settled also checks that both ends kept the same connection, the one
	// the lower address dialled.
	settled := func(t *testing.T, a *Node, ra *recorder, b *Node, rb *recorder) {
		t.Helper()
		flows(t, a, ra, b, rb)
		time.Sleep(10 * time.Millisecond) // the losing connection's reader has exited
		a.mu.Lock()
		pa := a.peers[b.Addr()]
		a.mu.Unlock()
		b.mu.Lock()
		pb := b.peers[a.Addr()]
		b.mu.Unlock()
		if pa == nil || pb == nil {
			t.Fatalf("peer entries a=%v b=%v, want one each", pa, pb)
		}
		if pa.conn.LocalAddr().String() != pb.conn.RemoteAddr().String() {
			t.Fatal("the two ends kept different connections")
		}
		if lowDialled := a.Addr() < b.Addr(); pa.outbound != lowDialled || pb.outbound == lowDialled {
			t.Fatal("kept the connection the higher address dialled")
		}
	}
	dial := func(t *testing.T, from, to *Node) net.Conn {
		t.Helper()
		conn, err := from.dial(to.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	read := func(n *Node, conn net.Conn, peer string) {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readLoop(conn, peer)
		}()
	}

	// Each end registers the connection it dialled before it accepts the
	// other's: what Connect does when the two calls truly overlap. Holding
	// both peer tables keeps the accepting goroutines out until then.
	t.Run("dialled first", func(t *testing.T) {
		a, ra, b, rb := listenPair(t)
		a.mu.Lock()
		b.mu.Lock()
		c1, c2 := dial(t, a, b), dial(t, b, a)
		a.peers[b.Addr()] = &peer{addr: b.Addr(), conn: c1, outbound: true}
		b.peers[a.Addr()] = &peer{addr: a.Addr(), conn: c2, outbound: true}
		read(a, c1, b.Addr())
		read(b, c2, a.Addr())
		b.mu.Unlock()
		a.mu.Unlock()
		settled(t, a, ra, b, rb)
	})

	// Each end accepts the other's connection while its own dial is still in
	// flight, and registers its own afterwards.
	t.Run("accepted first", func(t *testing.T) {
		a, ra, b, rb := listenPair(t)
		c1, c2 := dial(t, a, b), dial(t, b, a)
		waitFor(t, 2*time.Second, func() bool { return len(a.Peers()) == 1 && len(b.Peers()) == 1 })
		for _, d := range []struct {
			n    *Node
			conn net.Conn
			peer string
		}{{a, c1, b.Addr()}, {b, c2, a.Addr()}} {
			if d.n.register(d.peer, d.conn, true) {
				read(d.n, d.conn, d.peer)
			} else {
				d.conn.Close()
			}
		}
		settled(t, a, ra, b, rb)
	})

	t.Run("racing Connect", func(t *testing.T) {
		for round := 0; round < 10; round++ {
			a, ra, b, rb := listenPair(t)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for _, d := range []struct{ from, to *Node }{{a, b}, {b, a}} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := d.from.Connect(d.to.Addr()); err != nil {
						t.Error(err)
					}
				}()
			}
			close(start)
			wg.Wait()
			flows(t, a, ra, b, rb)
			a.Close()
			b.Close()
		}
	})
}

func TestSelfConnectIgnored(t *testing.T) {
	r := &recorder{}
	a, err := Listen("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.Connect(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if len(a.Peers()) != 0 {
		t.Fatal("node connected to itself")
	}
}

func TestSendToUnknownPeer(t *testing.T) {
	r := &recorder{}
	a, err := Listen("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	if err := a.Send("10.0.0.1:1234", FrameMeta, nil); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestCloseIsIdempotentAndStopsTraffic(t *testing.T) {
	a, _, b, rb := newPair(t)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// b should notice the peer drop.
	waitFor(t, 2*time.Second, func() bool { return len(b.Peers()) == 0 })
	if rb.count() != 0 {
		t.Fatal("unexpected frames")
	}
	if err := a.Connect(b.Addr()); err == nil {
		t.Fatal("closed node accepted Connect")
	}
}

func TestLargeFrame(t *testing.T) {
	a, _, b, rb := newPair(t)
	payload := make([]byte, 1<<20) // 1 MiB data item
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := a.Send(b.Addr(), FrameData, payload); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rb.count() == 1 })
	got, _ := rb.last()
	if !bytes.Equal(got.payload, payload) {
		t.Fatal("large payload corrupted")
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	a, _, b, _ := newPair(t)
	err := a.Send(b.Addr(), FrameData, make([]byte, MaxFrameSize))
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestManyFramesInOrder(t *testing.T) {
	a, _, b, rb := newPair(t)
	const count = 200
	for i := 0; i < count; i++ {
		if err := a.Send(b.Addr(), FrameMeta, []byte(fmt.Sprintf("m%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return rb.count() == count })
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for i, f := range rb.frames {
		if want := fmt.Sprintf("m%03d", i); string(f.payload) != want {
			t.Fatalf("frame %d = %q, want %q (reordered?)", i, f.payload, want)
		}
	}
}

// TestServeConnRepliesWithHello pins the handshake symmetry the serveConn
// comment promises: an inbound dialer's hello is answered with the
// acceptor's own hello, so both sides learn the other's listen binding.
func TestServeConnRepliesWithHello(t *testing.T) {
	r := &recorder{}
	n, err := Listen("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })

	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	const claimed = "127.0.0.1:54321"
	if err := writeFrame(conn, FrameHello, []byte(claimed)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	ft, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no hello reply: %v", err)
	}
	if ft != FrameHello {
		t.Fatalf("reply frame type = %d, want FrameHello", ft)
	}
	if string(payload) != n.Addr() {
		t.Fatalf("reply hello = %q, want acceptor binding %q", payload, n.Addr())
	}
	waitFor(t, 2*time.Second, func() bool {
		for _, p := range n.Peers() {
			if p == claimed {
				return true
			}
		}
		return false
	})
}

// TestHelloValidation pins that an empty or oversized hello payload is
// rejected instead of being registered verbatim as a peer key, and so is a
// Greeter's hello past MaxHelloLen or one without an address.
func TestHelloValidation(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"oversized", make([]byte, MaxHelloLen+1)},
		{"oversized hello", append([]byte("127.0.0.1:1\x00"), make([]byte, MaxHelloLen+1)...)},
		{"hello without address", []byte("\x00hello")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := &recorder{}
			n, err := Listen("127.0.0.1:0", r)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			conn, err := net.Dial("tcp", n.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { conn.Close() })
			if err := writeFrame(conn, FrameHello, tc.payload); err != nil {
				t.Fatal(err)
			}
			// The node must drop the connection without registering a peer.
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, _, err := readFrame(conn); err == nil {
				t.Fatal("node answered a malformed hello instead of dropping it")
			}
			if got := len(n.Peers()); got != 0 {
				t.Fatalf("malformed hello registered %d peers: %v", got, n.Peers())
			}
		})
	}
}

// TestEveryFrameTypeIsNamed keeps the per-type counter table from going
// stale: every number below frameTypeEnd is either a live type with a metric
// name or one of the retired numbers, which must stay unnamed and count
// under "other" like any unknown type.
func TestEveryFrameTypeIsNamed(t *testing.T) {
	retired := map[byte]bool{2: true, 4: true, 5: true, 12: true, 13: true, 14: true}
	seen := make(map[string]byte)
	for ft := byte(1); ft < frameTypeEnd; ft++ {
		name := frameNames[ft]
		switch {
		case retired[ft] && name != "":
			t.Errorf("retired frame type %d is named %q", ft, name)
		case !retired[ft] && name == "":
			t.Errorf("frame type %d has no entry in frameNames", ft)
		}
		if name == "" {
			continue
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("frame types %d and %d share the name %q", prev, ft, name)
		}
		seen[name] = ft
	}

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	for _, ft := range []byte{FrameCompactBlock, 2, 14, frameTypeEnd, 0xff} {
		m.onSent(ft, 3)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("p2p.frames_sent.compact_block"); got != 1 {
		t.Errorf("frames_sent.compact_block = %d, want 1", got)
	}
	if got := snap.Counter("p2p.frames_sent.other"); got != 4 {
		t.Errorf("frames_sent.other = %d, want 4 (two retired, two unknown)", got)
	}
	if got := snap.Counter("p2p.frames_sent"); got != 5 {
		t.Errorf("frames_sent = %d, want 5", got)
	}
}

// greeter is a recorder that introduces itself with a fixed hello and
// records the hellos it is handed.
type greeter struct {
	recorder
	hello  string
	mu     sync.Mutex
	hellos map[string]string // peer address → its hello
	early  map[string]bool   // peers with a frame dispatched before any hello
}

func newGreeter(hello string) *greeter {
	return &greeter{hello: hello, hellos: map[string]string{}, early: map[string]bool{}}
}

func (g *greeter) Hello() []byte { return []byte(g.hello) }

func (g *greeter) HandleHello(from string, hello []byte) {
	g.mu.Lock()
	g.hellos[from] = string(hello)
	g.mu.Unlock()
}

func (g *greeter) HandleFrame(from string, ft byte, payload []byte) {
	g.mu.Lock()
	if _, greeted := g.hellos[from]; !greeted {
		g.early[from] = true
	}
	g.mu.Unlock()
	g.recorder.HandleFrame(from, ft, payload)
}

func (g *greeter) helloFrom(addr string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	h, ok := g.hellos[addr]
	return h, ok
}

// A Greeter's hello rides on the hello frames both ends already exchange:
// the acceptor reads the dialer's, the dialer's reader the acceptor's reply,
// each before any frame of the link, and neither reaches HandleFrame. A node
// whose handler is no Greeter sends its bare address, as before, and
// receives no hello; the frames themselves arrive exactly as without hellos.
func TestHelloNeverReachesHandleFrame(t *testing.T) {
	listen := func(h Handler) *Node {
		t.Helper()
		n, err := Listen("127.0.0.1:0", h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		return n
	}
	ga, gb, plain := newGreeter("A"), newGreeter("B"), &recorder{}
	a, b, p := listen(ga), listen(gb), listen(plain)
	if !bytes.Equal(p.hello, []byte(p.Addr())) || !bytes.Equal(a.hello, []byte(a.Addr()+"\x00A")) {
		t.Fatalf("hello payloads %q and %q", p.hello, a.hello)
	}
	for _, c := range [][2]*Node{{a, b}, {p, a}, {b, p}} {
		if err := c[0].Connect(c[1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		_, ab := ga.helloFrom(b.Addr())
		_, ba := gb.helloFrom(a.Addr())
		return ab && ba && len(a.Peers()) == 2 && len(b.Peers()) == 2 && len(p.Peers()) == 2
	})
	for _, n := range []*Node{a, b, p} {
		for _, to := range n.Peers() {
			if err := n.Send(to, FrameMeta, []byte(n.Addr())); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 2*time.Second, func() bool { return ga.count() == 2 && gb.count() == 2 && plain.count() == 2 })
	if h, _ := ga.helloFrom(b.Addr()); h != "B" {
		t.Errorf("a (dialer) got hello %q from b, want B", h)
	}
	if h, _ := gb.helloFrom(a.Addr()); h != "A" {
		t.Errorf("b (acceptor) got hello %q from a, want A", h)
	}
	for _, g := range []*greeter{ga, gb} {
		if _, ok := g.helloFrom(p.Addr()); ok {
			t.Errorf("hellos %v: want none from the plain node", g.hellos)
		}
	}
	for _, c := range []struct {
		g    *greeter
		peer string
	}{{ga, b.Addr()}, {gb, a.Addr()}} {
		c.g.mu.Lock()
		if c.g.early[c.peer] {
			t.Errorf("a frame from %s was dispatched before its hello", c.peer)
		}
		c.g.mu.Unlock()
	}
	for _, r := range []*recorder{&ga.recorder, &gb.recorder, plain} {
		r.mu.Lock()
		for _, f := range r.frames {
			if f.ft != FrameMeta || string(f.payload) != f.from {
				t.Errorf("handler got frame %d %q from %s", f.ft, f.payload, f.from)
			}
		}
		r.mu.Unlock()
	}
}
