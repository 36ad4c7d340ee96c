package livenode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// --- sampled-probe test fabric -------------------------------------------------

// probeCluster is an n-node roster on one fake fabric sharing one manual
// clock, with the repair plane on and mining effectively parked (T0 one
// hour), so advancing the clock exercises exactly the liveness machinery.
type probeCluster struct {
	fn    *fakeNet
	clock *sim.VClock
	nodes []*Node
	regs  []*telemetry.Registry
	live  []bool
}

const (
	probeTestEvery   = time.Second
	probeTestSuspect = 4 * time.Second
	probeTestHyst    = 3 * time.Second
)

func newProbeCluster(t testing.TB, n int, genesisSeed int64) *probeCluster {
	t.Helper()
	idents, accounts := testRoster(n)
	epoch := time.Unix(1700000000, 0)
	pc := &probeCluster{
		fn:    newFakeNet(),
		clock: sim.NewVClock(epoch),
		nodes: make([]*Node, n),
		regs:  make([]*telemetry.Registry, n),
		live:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%02d", i)
		pc.regs[i] = telemetry.NewRegistry()
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Hour},
			GenesisSeed: genesisSeed,
			Epoch:       epoch,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				return pc.fn.endpoint(name, h), nil
			},
			Clock:              pc.clock,
			Telemetry:          pc.regs[i],
			RepairWorkers:      1,
			RepairProbeEvery:   probeTestEvery,
			RepairSuspectAfter: probeTestSuspect,
			RepairHysteresis:   probeTestHyst,
		})
		if err != nil {
			t.Fatal(err)
		}
		pc.nodes[i] = node
		pc.live[i] = true
	}
	t.Cleanup(func() {
		for i, node := range pc.nodes {
			if pc.live[i] {
				node.Close()
			}
		}
	})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := pc.nodes[i].Connect(fmt.Sprintf("p%02d", j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pc
}

// kill crashes node i; its timers stop and its handlers go dark.
func (pc *probeCluster) kill(t testing.TB, i int) {
	t.Helper()
	if err := pc.nodes[i].Kill(); err != nil {
		t.Fatal(err)
	}
	pc.live[i] = false
}

// status is observer's current verdict about subject.
func (pc *probeCluster) status(observer, subject int) repair.Status {
	n := pc.nodes[observer]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.repair.det.Status(subject, n.now())
}

// assertNoLiveDead fails if any live observer currently counts any live
// subject dead.
func (pc *probeCluster) assertNoLiveDead(t testing.TB, when string) {
	t.Helper()
	for o := range pc.nodes {
		if !pc.live[o] {
			continue
		}
		for s := range pc.nodes {
			if s == o || !pc.live[s] {
				continue
			}
			if pc.status(o, s) == repair.Dead {
				t.Fatalf("%s: node %d falsely counts live node %d dead", when, o, s)
			}
		}
	}
}

// dropSampled builds a deterministic loss filter: fraction frac of probe
// and ack frames are dropped, decided per (from, to, per-pair counter)
// via FNV so the outcome does not depend on map-iteration delivery order.
func dropSampled(seed int64, frac float64) func(from, to string, ft byte) bool {
	var mu sync.Mutex
	counts := make(map[string]uint64)
	return func(from, to string, ft byte) bool {
		if ft != p2p.FrameRepairProbe && ft != p2p.FrameRepairProbeAck {
			return false
		}
		mu.Lock()
		key := from + "|" + to
		c := counts[key]
		counts[key] = c + 1
		mu.Unlock()
		h := fnv.New64a()
		fmt.Fprintf(h, "%d|%s|%d|%d", seed, key, ft, c)
		return float64(h.Sum64()%1000)/1000 < frac
	}
}

// probeTestRosters are the roster sizes the probe properties run at: the
// fan-out probes most of a 6-node roster's peers per tick, a third of a
// 12-node one's and a sixth of a 24-node one's.
var probeTestRosters = []int{6, 12, 24}

// TestProbeFanoutFromRoster pins the derived fan-out: 4 up to 544 nodes, 8 at
// 1000 (the two values deployments and the chaos scale gate run), and never
// smaller for a larger roster.
func TestProbeFanoutFromRoster(t *testing.T) {
	for n := 1; n <= 544; n++ {
		if got := probeFanout(n); got != 4 {
			t.Fatalf("probeFanout(%d) = %d, want 4", n, got)
		}
	}
	if got := probeFanout(1000); got != 8 {
		t.Fatalf("probeFanout(1000) = %d, want 8", got)
	}
	for n := 2; n <= 10_000; n++ {
		if probeFanout(n) < probeFanout(n-1) {
			t.Fatalf("probeFanout(%d) = %d < probeFanout(%d) = %d", n, probeFanout(n), n-1, probeFanout(n-1))
		}
	}
}

// TestProbeDeadDetectionBound is the sampled detector's convergence
// property: across roster sizes and seeded topologies, a killed node is
// counted dead by EVERY live observer within SuspectAfter + Hysteresis +
// k·probeEvery (k = 2 covers tick granularity plus digest-age rounding),
// and no live node is collateral damage.
func TestProbeDeadDetectionBound(t *testing.T) {
	const victim = 3
	for _, n := range probeTestRosters {
		for _, seed := range []int64{1, 7, 42} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				pc := newProbeCluster(t, n, seed)
				pc.clock.Advance(5 * time.Second) // bindings + evidence warm up
				pc.assertNoLiveDead(t, "before kill")

				pc.kill(t, victim)
				bound := probeTestSuspect + probeTestHyst + 2*probeTestEvery
				pc.clock.Advance(bound + 500*time.Millisecond)

				for o := 0; o < n; o++ {
					if o == victim {
						continue
					}
					if got := pc.status(o, victim); got != repair.Dead {
						t.Errorf("observer %d sees victim as %v after %v, want dead", o, got, bound)
					}
				}
				pc.assertNoLiveDead(t, "after kill")
			})
		}
	}
}

// TestProbeAliveUnderLossNeverDead is the false-positive property: with
// 20% of probe and ack frames lost, no live node is ever counted dead by
// any other across a long horizon — direct samples plus digest epidemics
// keep every pair's evidence inside the SuspectAfter+Hysteresis window.
func TestProbeAliveUnderLossNeverDead(t *testing.T) {
	for _, n := range probeTestRosters {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			pc := newProbeCluster(t, n, 42)
			pc.fn.setDrop(dropSampled(int64(n)*1000+7, 0.20))
			for tick := 0; tick < 30; tick++ {
				pc.clock.Advance(probeTestEvery)
				pc.assertNoLiveDead(t, fmt.Sprintf("tick %d", tick))
			}
			// The probe plane actually ran, with digests merging.
			var sent, merged uint64
			for _, reg := range pc.regs {
				sent += counter(reg, "livenode.probe.sent")
				merged += counter(reg, "livenode.probe.digest_merged")
			}
			if sent == 0 {
				t.Fatal("no probes sent")
			}
			if merged == 0 {
				t.Fatal("no digest entries merged — third-party evidence is not spreading")
			}
		})
	}
}

// TestProbeTinyRosterDetectsDead covers rosters with fewer peers than the
// default probe fanout: every peer is probed each tick, every live node
// binds every other roster address, and a killed node is declared dead by
// all survivors within the same bound as on a large roster.
func TestProbeTinyRosterDetectsDead(t *testing.T) {
	for _, n := range []int{3, 5} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			const victim = 1
			pc := newProbeCluster(t, n, 42)
			pc.clock.Advance(5 * time.Second)
			for i, node := range pc.nodes {
				node.mu.Lock()
				bound := len(node.idxOf)
				node.mu.Unlock()
				if bound != n-1 {
					t.Errorf("node %d bound %d roster addresses, want %d", i, bound, n-1)
				}
				if counter(pc.regs[i], "livenode.probe.sent") == 0 {
					t.Errorf("node %d sent no probes", i)
				}
			}
			pc.assertNoLiveDead(t, "before kill")

			pc.kill(t, victim)
			pc.clock.Advance(probeTestSuspect + probeTestHyst + 2*probeTestEvery)
			for o := 0; o < n; o++ {
				if o == victim {
					continue
				}
				if got := pc.status(o, victim); got != repair.Dead {
					t.Errorf("observer %d sees victim as %v, want dead", o, got)
				}
			}
			pc.assertNoLiveDead(t, "after kill")
		})
	}
}

// TestProbeAckDigestBounded pins the §15 byte story: one ack, read through
// the decoder, never carries more than probeDigestMax entries, names neither
// the responder nor a node silent past the dead window, and spends two bytes
// an entry on a warm cluster (adjacent indices, ages under 12.8 s).
func TestProbeAckDigestBounded(t *testing.T) {
	const n = 40 // roster wider than the digest bound
	pc := newProbeCluster(t, n, 42)
	pc.clock.Advance(3 * time.Second)
	node := pc.nodes[0]
	node.mu.Lock()
	ack := node.encodeProbeAckLocked(node.now())
	node.mu.Unlock()
	entries, ok := decodeProbeAck(nil, ack, n)
	if !ok {
		t.Fatalf("the decoder refuses a live node's ack % x", ack)
	}
	if len(entries) > probeDigestMax {
		t.Fatalf("digest carries %d entries, bound is %d", len(entries), probeDigestMax)
	}
	if len(entries) == 0 {
		t.Fatal("warm cluster produced an empty digest")
	}
	for _, e := range entries {
		if e.idx == 0 || time.Duration(e.units)*probeDigestUnit > probeTestSuspect+probeTestHyst {
			t.Fatalf("digest entry %+v names the responder or a node past the dead window", e)
		}
	}
	if len(ack) > 2*len(entries) {
		t.Errorf("ack of %d entries takes %d bytes, want <= 2 an entry", len(entries), len(ack))
	}
}

// appendProbeAck encodes entries as encodeProbeAckLocked lays them out.
func appendProbeAck(dst []byte, roster int, entries []probeEntry) []byte {
	prev := -1
	for _, e := range entries {
		dst = appendProbeEntry(dst, roster, prev, e)
		prev = e.idx
	}
	return dst
}

// TestProbeAckCodec round-trips digests that start late in the roster and
// wrap, with gaps and ages of every varint width, at roster sizes from 2 to
// past the 16-bit indices the fixed-width layout truncated; and it holds
// every rejection: a malformed varint, an entry cut short, more than
// probeDigestMax entries, a gap ≥ roster, a second roster cycle and an age
// above 0xFFFF units.
func TestProbeAckCodec(t *testing.T) {
	gaps := []int{0, 0, 1, 0, 200, 0, 3, 0}
	units := []int{0, 1, 127, 128, 16383, 16384, 0xFFFF}
	for _, roster := range []int{2, 64, 256, 1000, 70_000} {
		var entries []probeEntry
		pos, span := max(roster-9, 0), 0 // the first entry sits near the roster's end
		for k := 0; len(entries) < min(probeDigestMax, roster); k++ {
			gap := gaps[k%len(gaps)]
			if len(entries) > 0 && span+gap+1 >= roster {
				gap = 0 // keep the digest inside one cycle
			}
			if len(entries) > 0 {
				span += gap + 1
			}
			pos += gap + 1
			entries = append(entries, probeEntry{pos % roster, units[k%len(units)]})
		}
		ack := appendProbeAck(nil, roster, entries)
		got, ok := decodeProbeAck(nil, ack, roster)
		if !ok || !slices.Equal(got, entries) {
			t.Fatalf("roster %d: %v encodes to % x, which decodes to %v (ok=%v)", roster, entries, ack, got, ok)
		}
		if !bytes.Equal(appendProbeAck(nil, roster, got), ack) {
			t.Fatalf("roster %d: % x does not re-encode to itself", roster, ack)
		}
		if roster == 70_000 && entries[0].idx <= 0xFFFF {
			t.Fatalf("roster %d: the digest names no index past 16 bits", roster)
		}
	}

	uv := func(vs ...uint64) (out []byte) {
		for _, v := range vs {
			out = binary.AppendUvarint(out, v)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		roster  int
		payload []byte
	}{
		{"padded varint", 64, []byte{0x80, 0x00, 1}},
		{"varint past 64 bits", 64, append(bytes.Repeat([]byte{0xff}, 10), 1, 1)},
		{"gap without an age", 64, uv(0)},
		{"age cut short", 64, []byte{0, 0x80}},
		{"17 entries", 64, bytes.Repeat(uv(0, 1), probeDigestMax+1)},
		{"gap = roster", 64, uv(64, 1)},
		{"gap past the roster", 2, uv(0, 1, 2, 1)},
		{"second cycle", 64, uv(0, 1, 63, 1)},
		{"second cycle by small gaps", 3, uv(2, 1, 0, 1, 0, 1, 0, 1)},
		{"age above 0xFFFF", 64, uv(0, 0x10000)},
	} {
		if got, ok := decodeProbeAck(nil, c.payload, c.roster); ok {
			t.Errorf("%s (roster %d): % x accepted as %v", c.name, c.roster, c.payload, got)
		}
	}
	// The largest accepted cases just inside each bound.
	for _, c := range []struct {
		roster  int
		payload []byte
	}{
		{64, bytes.Repeat(uv(0, 1), probeDigestMax)},
		{64, uv(63, 1, 62, 0xFFFF)},
		{3, uv(2, 1, 0, 1, 0, 1)},
		{1, uv(0, 0)},
		{64, nil},
	} {
		if _, ok := decodeProbeAck(nil, c.payload, c.roster); !ok {
			t.Errorf("roster %d: % x refused", c.roster, c.payload)
		}
	}
}

// FuzzProbeAck feeds arbitrary bytes and roster sizes to the ack decoder:
// whatever it accepts names at most probeDigestMax distinct roster nodes with
// ages of at most 0xFFFF units, and re-encodes to exactly the same bytes.
func FuzzProbeAck(f *testing.F) {
	f.Add(uint32(64), []byte{0, 1, 0, 1, 0, 0x80, 0x01})
	f.Add(uint32(2), []byte{1, 5, 0, 5})
	f.Add(uint32(70_000), binary.AppendUvarint([]byte{0x80, 0x80, 0x04, 1}, 0xFFFF))
	f.Add(uint32(64), []byte{63, 1, 62, 1})
	f.Add(uint32(64), []byte{0x80, 0x00, 1})
	f.Fuzz(func(t *testing.T, roster uint32, payload []byte) {
		n := 1 + int(roster%100_000)
		entries, ok := decodeProbeAck(nil, payload, n)
		if !ok {
			return
		}
		if len(entries) > probeDigestMax {
			t.Fatalf("accepted %d entries", len(entries))
		}
		seen := make(map[int]bool)
		for _, e := range entries {
			if e.idx < 0 || e.idx >= n || seen[e.idx] || e.units < 0 || e.units > 0xFFFF {
				t.Fatalf("roster %d: accepted entry %+v of %v", n, e, entries)
			}
			seen[e.idx] = true
		}
		if re := appendProbeAck(nil, n, entries); !bytes.Equal(re, payload) {
			t.Fatalf("roster %d: % x decodes to %v, which re-encodes to % x", n, payload, entries, re)
		}
	})
}
