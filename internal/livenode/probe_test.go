package livenode

import (
	"fmt"
	"hash/fnv"
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

// TestProbeAckDigestBounded pins the §15 byte story: one ack never
// carries more than probeDigestMax entries, and entries silent past the
// dead window are omitted.
func TestProbeAckDigestBounded(t *testing.T) {
	const n = 40 // roster wider than the digest bound
	pc := newProbeCluster(t, n, 42)
	pc.clock.Advance(3 * time.Second)
	node := pc.nodes[0]
	node.mu.Lock()
	ack := node.encodeProbeAckLocked(node.now())
	node.mu.Unlock()
	if len(ack) < 2 {
		t.Fatalf("ack too short: %d bytes", len(ack))
	}
	count := int(ack[0])<<8 | int(ack[1])
	if count > probeDigestMax {
		t.Fatalf("digest carries %d entries, bound is %d", count, probeDigestMax)
	}
	if len(ack) != 2+4*count {
		t.Fatalf("ack length %d does not match count %d", len(ack), count)
	}
	if count == 0 {
		t.Fatal("warm cluster produced an empty digest")
	}
}
