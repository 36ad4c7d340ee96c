package memnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/p2p"
)

type sink struct{}

func (sink) HandleFrame(string, byte, []byte) {}

// TestMemnetHotPathAllocs is the transport's alloc gate for large
// clusters: with recording off, a steady-state broadcast costs exactly
// one allocation (the shared payload copy, fanned out to every peer) and
// delivering a message costs none — message structs cycle through the
// free list and the event digest folds without allocating.
func TestMemnetHotPathAllocs(t *testing.T) {
	const peers = 32
	n := New(1, nil)
	n.SetRecording(false)
	eps := make([]*Endpoint, peers)
	for i := range eps {
		e, err := n.Listen(fmt.Sprintf("n%02d", i), sink{})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = e
	}
	for i := 1; i < peers; i++ {
		if err := eps[0].Connect(eps[i].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	payload := []byte("steady-state broadcast frame payload")

	// Warm the free list, the queue heap, and the peer scratch.
	for i := 0; i < 4; i++ {
		eps[0].Broadcast(p2p.FrameData, payload)
		for n.DeliverNext() {
		}
	}

	if got := testing.AllocsPerRun(200, func() {
		if d, _ := eps[0].Broadcast(p2p.FrameData, payload); d != peers-1 {
			t.Fatalf("broadcast reached %d peers, want %d", d, peers-1)
		}
		for n.DeliverNext() {
		}
	}); got > 1 {
		t.Fatalf("broadcast+deliver cycle allocates %.2f/op, want ≤ 1 (the shared payload copy)", got)
	}

	if got := testing.AllocsPerRun(200, func() {
		if err := eps[0].Send(eps[1].Addr(), p2p.FrameMeta, payload); err != nil {
			t.Fatal(err)
		}
		for n.DeliverNext() {
		}
	}); got > 1 {
		t.Fatalf("send+deliver cycle allocates %.2f/op, want ≤ 1 (the payload copy)", got)
	}
}

// TestEventDigestMatchesLog: the digest folded with recording off must
// equal the digest of the same run with recording on, and two identical
// runs must agree — it is the log-free determinism check.
func TestEventDigestMatchesLog(t *testing.T) {
	run := func(record bool) (uint64, uint64, int) {
		// Fixed time source: the digest folds event timestamps, so the
		// determinism contract (like the chaos harness's) assumes a
		// virtual clock, not the wall clock.
		epoch := time.Unix(1700000000, 0)
		n := New(7, func() time.Time { return epoch })
		n.SetRecording(record)
		ra := &recorder{}
		a, err := n.Listen("a", ra)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Listen("b", &recorder{}); err != nil {
			t.Fatal(err)
		}
		if err := a.Connect("b"); err != nil {
			t.Fatal(err)
		}
		a.Send("b", p2p.FrameMeta, []byte("x"))
		a.Broadcast(p2p.FrameData, []byte("yy"))
		n.BlockLink("a", "b")
		a.Send("b", p2p.FrameMeta, []byte("z"))
		n.Heal()
		for n.DeliverNext() {
		}
		return n.EventDigest(), n.EventCount(), len(n.Events())
	}
	d1, c1, retained1 := run(true)
	d2, c2, retained2 := run(true)
	if d1 != d2 || c1 != c2 {
		t.Fatalf("identical runs disagree: digest %x/%x count %d/%d", d1, d2, c1, c2)
	}
	d3, c3, retained3 := run(false)
	if d3 != d1 || c3 != c1 {
		t.Fatalf("recording toggle changed the digest: %x/%x count %d/%d", d1, d3, c1, c3)
	}
	if retained1 != retained2 || retained1 == 0 {
		t.Fatalf("recorded logs disagree: %d vs %d events", retained1, retained2)
	}
	if retained3 != 0 {
		t.Fatalf("recording off retained %d events", retained3)
	}
	if uint64(retained1) != c1 {
		t.Fatalf("recorded %d events but counted %d", retained1, c1)
	}
}

// TestBroadcastSharedPayloadIsolated: the shared broadcast buffer must
// still be detached from the caller's slice — mutating the input after
// Broadcast cannot change what recipients see.
func TestBroadcastSharedPayloadIsolated(t *testing.T) {
	n := New(3, nil)
	ra, rb := &recorder{}, &recorder{}
	a, err := n.Listen("a", ra)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", rb); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("c", &recorder{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("c"); err != nil {
		t.Fatal(err)
	}
	buf := []byte("original")
	a.Broadcast(p2p.FrameMeta, buf)
	copy(buf, "SCRIBBLE")
	for n.DeliverNext() {
	}
	if len(rb.frames) != 1 || rb.frames[0].payload != "original" {
		t.Fatalf("recipient saw caller's mutation: %+v", rb.frames)
	}
}
