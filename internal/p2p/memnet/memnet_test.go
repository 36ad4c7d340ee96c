package memnet

import (
	"slices"
	"testing"
	"time"

	"repro/internal/p2p"
)

type recorder struct {
	frames []recordedFrame
}

type recordedFrame struct {
	from    string
	frame   byte
	payload string
}

func (r *recorder) HandleFrame(from string, frameType byte, payload []byte) {
	r.frames = append(r.frames, recordedFrame{from, frameType, string(payload)})
}

// pump delivers every in-flight message.
func pump(n *Network) {
	for n.DeliverNext() {
	}
}

func twoEndpoints(t *testing.T, n *Network) (*Endpoint, *recorder, *Endpoint, *recorder) {
	t.Helper()
	ra, rb := &recorder{}, &recorder{}
	a, err := n.Listen("a", ra)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Listen("b", rb)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	return a, ra, b, rb
}

func TestSendDeliverRoundTrip(t *testing.T) {
	n := New(1, nil)
	a, ra, b, rb := twoEndpoints(t, n)

	if err := a.Send("b", p2p.FrameMeta, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", p2p.FrameData, []byte("yo")); err != nil {
		t.Fatal(err)
	}
	pump(n)
	if len(rb.frames) != 1 || rb.frames[0].payload != "hi" || rb.frames[0].from != "a" {
		t.Fatalf("b received %+v", rb.frames)
	}
	if len(ra.frames) != 1 || ra.frames[0].payload != "yo" {
		t.Fatalf("a received %+v", ra.frames)
	}
	if got := a.Peers(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("a peers = %v", got)
	}
}

func TestConnectRefusedAndUnknownPeer(t *testing.T) {
	n := New(1, nil)
	a, err := n.Listen("a", &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("ghost"); err == nil {
		t.Fatal("connect to missing endpoint succeeded")
	}
	if err := a.Send("ghost", p2p.FrameMeta, nil); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
	if _, err := n.Listen("a", &recorder{}); err == nil {
		t.Fatal("duplicate listen succeeded")
	}
}

func TestDropFaultLosesEverything(t *testing.T) {
	n := New(7, nil)
	n.SetDefaults(Params{Drop: 1})
	a, _, _, rb := twoEndpoints(t, n)
	for i := 0; i < 5; i++ {
		if err := a.Send("b", p2p.FrameMeta, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	pump(n)
	if len(rb.frames) != 0 {
		t.Fatalf("lossy link delivered %d frames", len(rb.frames))
	}
	drops := 0
	for _, e := range n.Events() {
		if e.Kind == EvDrop && e.Note == "loss" {
			drops++
		}
	}
	if drops != 5 {
		t.Fatalf("logged %d loss drops, want 5", drops)
	}
}

func TestDuplicateFaultDeliversTwice(t *testing.T) {
	n := New(7, nil)
	n.SetDefaults(Params{Duplicate: 1})
	a, _, _, rb := twoEndpoints(t, n)
	if err := a.Send("b", p2p.FrameMeta, []byte("x")); err != nil {
		t.Fatal(err)
	}
	pump(n)
	if len(rb.frames) != 2 {
		t.Fatalf("duplicate link delivered %d frames, want 2", len(rb.frames))
	}
}

func TestFIFOWithoutReorder(t *testing.T) {
	// Random latency but Reorder=0: the link must stay FIFO.
	now := time.Unix(0, 0)
	n := New(3, func() time.Time { return now })
	n.SetDefaults(Params{DelayMin: 0, DelayMax: 50 * time.Millisecond})
	a, _, _, rb := twoEndpoints(t, n)
	for i := byte(0); i < 20; i++ {
		if err := a.Send("b", p2p.FrameMeta, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	pump(n)
	if len(rb.frames) != 20 {
		t.Fatalf("delivered %d frames", len(rb.frames))
	}
	for i, f := range rb.frames {
		if f.payload[0] != byte(i) {
			t.Fatalf("frame %d out of order: got payload %d", i, f.payload[0])
		}
	}
}

func TestReorderFaultShufflesDelivery(t *testing.T) {
	now := time.Unix(0, 0)
	n := New(3, func() time.Time { return now })
	n.SetDefaults(Params{Reorder: 1, DelayMin: 0, DelayMax: 50 * time.Millisecond})
	a, _, _, rb := twoEndpoints(t, n)
	for i := byte(0); i < 20; i++ {
		if err := a.Send("b", p2p.FrameMeta, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	pump(n)
	inOrder := true
	for i, f := range rb.frames {
		if f.payload[0] != byte(i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("full reorder fault delivered everything in order")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(1, nil)
	a, _, b, rb := twoEndpoints(t, n)

	// One message in flight when the cut lands: it must be dropped.
	if err := a.Send("b", p2p.FrameMeta, []byte("inflight")); err != nil {
		t.Fatal(err)
	}
	n.Partition([]string{"a"}, []string{"b"})
	if err := a.Send("b", p2p.FrameMeta, []byte("during")); err != nil {
		t.Fatal(err)
	}
	pump(n)
	if len(rb.frames) != 0 {
		t.Fatalf("partitioned link delivered %+v", rb.frames)
	}

	n.Heal()
	if err := a.Send("b", p2p.FrameMeta, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := b.Send("a", p2p.FrameData, nil); err != nil {
		t.Fatal(err)
	}
	pump(n)
	if len(rb.frames) != 1 || rb.frames[0].payload != "after" {
		t.Fatalf("healed link delivered %+v", rb.frames)
	}
}

// TestCloseSemantics: a closed endpoint drops out of its peers' snapshots,
// a send to it fails, frames it had not received when it closed are lost,
// and its address can be listened on again (a node restart).
func TestCloseSemantics(t *testing.T) {
	n := New(1, nil)
	ra, rb, rc := &recorder{}, &recorder{}, &recorder{}
	a, _ := n.Listen("a", ra)
	b, _ := n.Listen("b", rb)
	if _, err := n.Listen("c", rc); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("c"); err != nil {
		t.Fatal(err)
	}
	for _, p := range a.Peers() {
		if err := a.Send(p, p2p.FrameMeta, []byte("all")); err != nil {
			t.Fatal(err)
		}
	}
	pump(n)

	// Closing b: a observes the disconnect, later sends to b fail and a
	// frame in flight to it when it closes is dropped.
	if err := a.Send("b", p2p.FrameMeta, []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := a.Peers(); len(got) != 1 || got[0] != "c" {
		t.Fatalf("a peers after close = %v", got)
	}
	if err := a.Send("b", p2p.FrameMeta, []byte("again")); err == nil {
		t.Fatal("send to a closed peer succeeded")
	}
	if err := a.Send("c", p2p.FrameMeta, []byte("again")); err != nil {
		t.Fatal(err)
	}
	pump(n)
	if len(rb.frames) != 1 { // only the frame delivered before the close
		t.Fatalf("closed endpoint received %+v", rb.frames)
	}
	if len(rc.frames) != 2 {
		t.Fatalf("c received %+v", rc.frames)
	}

	// The address can be reused after close (node restart).
	if _, err := n.Listen("b", &recorder{}); err != nil {
		t.Fatal(err)
	}
}

func TestEventLogDeterminism(t *testing.T) {
	run := func() string {
		// Fixed time source: wall-clock timestamps would differ run to run.
		now := time.Unix(1700000000, 0)
		n := New(99, func() time.Time { return now })
		n.SetDefaults(Params{Drop: 0.3, Duplicate: 0.2, Reorder: 0.5, DelayMax: 10 * time.Millisecond})
		a, _, b, _ := twoEndpoints(t, n)
		for i := byte(0); i < 30; i++ {
			_ = a.Send("b", p2p.FrameMeta, []byte{i})
			_ = b.Send("a", p2p.FrameData, []byte{i, i})
		}
		n.Partition([]string{"a"}, []string{"b"})
		n.Heal()
		_ = a.Send("b", p2p.FrameData, []byte("tail"))
		pump(n)
		return n.EventLog()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed produced different event logs:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if first == "" {
		t.Fatal("empty event log")
	}
}

// TestPeersCacheFollowsEveryChange: Peers() hands out one shared sorted
// snapshot (p2p.Transport), so every way the peer set can change — connect
// from either side, a failed send (alone or in a fan-out over a snapshot),
// the peer closing, the endpoint itself closing — must show in the next call, while every snapshot
// handed out before the change stays exactly as it was, still sorted: a
// change installs a new slice and never edits the old one. A warm Peers()
// allocates nothing.
func TestPeersCacheFollowsEveryChange(t *testing.T) {
	n := New(1, nil)
	eps := map[string]*Endpoint{}
	for _, addr := range []string{"d", "b", "a", "c", "e"} {
		e, err := n.Listen(addr, &recorder{})
		if err != nil {
			t.Fatal(err)
		}
		eps[addr] = e
	}
	a := eps["a"]
	// held are snapshots taken before some change, each with the contents
	// it had then: no later change may touch them.
	type held struct {
		step       string
		snap, copy []string
	}
	var kept []held
	want := func(step string, e *Endpoint, peers ...string) {
		t.Helper()
		got := e.Peers()
		if !slices.Equal(got, peers) {
			t.Fatalf("%s: %s peers = %v, want %v", step, e.Addr(), got, peers)
		}
		kept = append(kept, held{step, got, slices.Clone(got)})
		for _, h := range kept {
			if !slices.Equal(h.snap, h.copy) || !slices.IsSorted(h.snap) {
				t.Fatalf("%s: the snapshot taken at %q changed to %v, was %v", step, h.step, h.snap, h.copy)
			}
		}
	}
	want("fresh", a)
	for _, addr := range []string{"d", "b"} {
		if err := a.Connect(addr); err != nil {
			t.Fatal(err)
		}
	}
	want("outbound connects", a, "b", "d")
	want("outbound connects, far side", eps["d"], "a")
	if err := eps["c"].Connect("a"); err != nil {
		t.Fatal(err)
	}
	if err := eps["e"].Connect("a"); err != nil {
		t.Fatal(err)
	}
	want("inbound connects", a, "b", "c", "d", "e")

	if allocs := testing.AllocsPerRun(100, func() { a.Peers() }); allocs != 0 {
		t.Fatalf("a warm Peers() allocates %.1f times, want 0: the snapshot is shared, not copied", allocs)
	}
	if p, q := a.Peers(), a.Peers(); &p[0] != &q[0] {
		t.Fatal("two Peers() calls with no change between them returned different slices")
	}

	// A closing peer disconnects from everyone that knew it.
	if err := eps["c"].Close(); err != nil {
		t.Fatal(err)
	}
	want("peer closed", a, "b", "d", "e")

	// Send failures need a dead endpoint a still lists:
	// re-register "c" closed-over (restart) so a's entry is stale.
	n.mu.Lock()
	a.setPeerLocked(n.endpoints["c"].num, true)
	n.mu.Unlock()
	want("stale entry", a, "b", "c", "d", "e")
	if err := a.Send("c", p2p.FrameMeta, nil); err == nil {
		t.Fatal("send to a closed endpoint succeeded")
	}
	want("send failed", a, "b", "d", "e")
	n.mu.Lock()
	a.setPeerLocked(n.endpoints["c"].num, true)
	n.mu.Unlock()
	delivered, failed := 0, 0
	for _, p := range a.Peers() { // the fan-out keeps reading its snapshot while c drops out
		if err := a.Send(p, p2p.FrameMeta, []byte("x")); err != nil {
			failed++
		} else {
			delivered++
		}
	}
	if delivered != 3 || failed != 1 {
		t.Fatalf("fan-out delivered=%d failed=%d, want 3/1", delivered, failed)
	}
	want("fan-out send failed", a, "b", "d", "e")

	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	want("self closed", a)
	want("self closed, far side", eps["b"])
}

// greeter is a recorder that introduces itself with a fixed hello.
type greeter struct {
	recorder
	hello  string
	hellos []recordedFrame // the peers' hellos, in arrival order
}

func (g *greeter) Hello() []byte { return []byte(g.hello) }

func (g *greeter) HandleHello(from string, hello []byte) {
	g.hellos = append(g.hellos, recordedFrame{from, 0, string(hello)})
}

// Connect hands each Greeter the other end's hello directly: no event, no
// delay, before any frame of the link can be delivered, and never through
// HandleFrame. An endpoint whose handler is no Greeter sends no hello and
// gets none, and the network behaves for it exactly as without hellos.
func TestConnectHandsHellos(t *testing.T) {
	n := New(1, nil)
	ga, gb := &greeter{hello: "A"}, &greeter{hello: "B"}
	plain := &recorder{}
	for addr, h := range map[string]p2p.Handler{"a": ga, "b": gb, "p": plain} {
		if _, err := n.Listen(addr, h); err != nil {
			t.Fatal(err)
		}
	}
	a, p := n.endpoints["a"], n.endpoints["p"]
	for _, to := range []string{"b", "p"} {
		if err := a.Connect(to); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ga.hellos, []recordedFrame{{"b", 0, "B"}}) || !slices.Equal(gb.hellos, []recordedFrame{{"a", 0, "A"}}) {
		t.Fatalf("hellos: a got %v, b got %v; want each the other's, and nothing from p", ga.hellos, gb.hellos)
	}
	for _, e := range n.Events() {
		if e.Kind != EvConnect {
			t.Fatalf("connecting logged %v: a hello must cost no event", e)
		}
	}
	if err := a.Connect("b"); err != nil || len(gb.hellos) != 1 {
		t.Fatalf("a repeated Connect greeted again: %v, %v", err, gb.hellos)
	}
	for _, to := range []string{"b", "p"} {
		if err := a.Send(to, p2p.FrameMeta, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	pump(n)
	want := []recordedFrame{{"a", p2p.FrameMeta, "x"}}
	if !slices.Equal(gb.frames, want) || !slices.Equal(plain.frames, want) {
		t.Fatalf("frames: b got %v, p got %v; want %v each", gb.frames, plain.frames, want)
	}
}
