package memnet

import (
	"testing"
	"time"

	"repro/internal/p2p"
)

type sink struct{}

func (sink) HandleFrame(string, byte, []byte) {}

// TestMemnetHotPathAllocs is the transport's alloc gate for large
// clusters: with recording off, a steady-state send+deliver cycle allocates
// nothing — the queue holds the sender's payload (frames are immutable after
// Send), message structs cycle through the free list and the event digest
// folds without allocating.
func TestMemnetHotPathAllocs(t *testing.T) {
	n := New(1, nil)
	n.SetRecording(false)
	a, err := n.Listen("a", sink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", sink{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	payload := []byte("steady-state frame payload")
	send := func() {
		if err := a.Send("b", p2p.FrameMeta, payload); err != nil {
			t.Fatal(err)
		}
		for n.DeliverNext() {
		}
	}
	// Warm the free list, the queue heap and the link's state.
	for i := 0; i < 4; i++ {
		send()
	}
	if got := testing.AllocsPerRun(200, send); got != 0 {
		t.Fatalf("send+deliver cycle allocates %.2f/op, want 0", got)
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
		a.Send("b", p2p.FrameData, []byte("yy"))
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

// TestHandlerGetsSenderPayload pins the frame contract on memnet: the
// handler is handed the very slice the sender passed to Send — same backing
// array, nothing copied — and a duplicated frame's second delivery shares it.
func TestHandlerGetsSenderPayload(t *testing.T) {
	n := New(3, nil)
	n.SetDefaults(Params{Duplicate: 1})
	var got [][]byte
	a, err := n.Listen("a", sink{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", p2p.HandlerFunc(func(_ string, _ byte, payload []byte) {
		got = append(got, payload)
	})); err != nil {
		t.Fatal(err)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	buf := []byte("frame")
	if err := a.Send("b", p2p.FrameMeta, buf); err != nil {
		t.Fatal(err)
	}
	for n.DeliverNext() {
	}
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want the frame and its duplicate", len(got))
	}
	for i, p := range got {
		if len(p) != len(buf) || &p[0] != &buf[0] {
			t.Fatalf("delivery %d is not the sender's slice", i)
		}
	}
}
