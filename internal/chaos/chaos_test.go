package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/p2p/memnet"
)

// seedFlag reseeds every scenario: go test ./internal/chaos -run Chaos -seed=7
var seedFlag = flag.Int64("seed", 1, "chaos scenario seed")

// newCluster builds a cluster, wires cleanup, and arranges for the faultnet
// event log to be dumped (and written to $CHAOS_LOG_DIR if set) on failure.
func newCluster(t *testing.T, opts Options) *Cluster {
	t.Helper()
	if opts.Seed == 0 {
		opts.Seed = *seedFlag
	}
	c, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		defer c.Close()
		if !t.Failed() {
			return
		}
		log := c.Net.EventLog()
		t.Logf("faultnet event log (%d events):\n%s", len(c.Net.Events()), log)
		t.Logf("telemetry at failure:\n%s", c.TelemetrySummary())
		if dir := os.Getenv("CHAOS_LOG_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o755); err == nil {
				name := strings.ReplaceAll(t.Name(), "/", "_")
				path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.log", name, opts.Seed))
				_ = os.WriteFile(path, []byte(log), 0o644)
			}
		}
	})
	if err := c.ConnectAll(); err != nil {
		t.Fatal(err)
	}
	return c
}

func checkInvariants(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosPartitionHeal splits a 4-node cluster in half, lets both sides
// mine divergent suffixes, heals, and checks convergence plus heal-time
// common-prefix safety.
func TestChaosPartitionHeal(t *testing.T) {
	c := newCluster(t, Options{N: 4})
	c.Run(30 * time.Second)

	c.Partition([]int{0, 1}, []int{2, 3})
	c.Run(60 * time.Second)

	// Safety reference: whatever all nodes still agree on at heal time must
	// survive fork resolution.
	prefix := CommonPrefix(c.Nodes())
	if len(prefix) == 0 {
		t.Fatal("no common prefix at heal time — genesis should always be shared")
	}
	c.Heal()
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	for i, n := range c.Nodes() {
		if err := CheckPrefixPreserved(prefix, n); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// TestChaosCrashRestart kills a persistent node without a checkpoint
// mid-run, lets the rest of the cluster advance, then restarts it from its
// WAL and checks it catches back up with consistent derived state.
func TestChaosCrashRestart(t *testing.T) {
	c := newCluster(t, Options{
		N:        3,
		DataDirs: []string{t.TempDir(), "", ""},
	})
	c.Run(40 * time.Second)
	preCrash := c.Node(0).Height()

	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	c.Run(30 * time.Second)

	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).Height(); got < preCrash {
		t.Fatalf("restarted node recovered to height %d, had %d before crash", got, preCrash)
	}
	// Telemetry cross-check: the registry survives the crash, so the
	// recovery counter must show exactly the pre-crash chain replayed from
	// the WAL (SyncAlways ⇒ every adopted block was durable; genesis is
	// never persisted, so WAL blocks == tip index).
	snap := c.NodeTelemetry(0).Snapshot()
	if got := snap.Counter("store.recovery.blocks"); got != preCrash {
		t.Fatalf("store.recovery.blocks = %d, want pre-crash height %d\n%s",
			got, preCrash, c.TelemetrySummary())
	}
	if snap.Counter("store.wal.appends") == 0 {
		t.Fatalf("store.wal.appends = 0 despite a persistent mining node\n%s", c.TelemetrySummary())
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
}

// TestChaosForkRace runs a fully connected cluster over slow links so block
// announcements race mined blocks, forcing repeated short forks that
// longest-chain resolution must clean up.
func TestChaosForkRace(t *testing.T) {
	c := newCluster(t, Options{
		N:      4,
		Faults: memnet.Params{DelayMin: 200 * time.Millisecond, DelayMax: 800 * time.Millisecond},
	})
	c.Run(90 * time.Second)
	c.Net.SetDefaults(memnet.Params{})
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
}

// TestChaosLossyLinks drops a quarter of all traffic; chain sync must
// recover whatever individual block broadcasts lose.
func TestChaosLossyLinks(t *testing.T) {
	c := newCluster(t, Options{
		N:      3,
		Faults: memnet.Params{Drop: 0.25, DelayMax: 100 * time.Millisecond},
	})
	c.Run(90 * time.Second)
	c.Net.SetDefaults(memnet.Params{})
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	// The fault counters must reflect the configured 25% loss: some sends
	// dropped, and enough delivered for consensus to converge anyway.
	net := c.NetTelemetry().Snapshot()
	if net.Counter("memnet.drops") == 0 {
		t.Fatalf("memnet.drops = 0 with Drop=0.25 — fault injection inert\n%s", c.TelemetrySummary())
	}
	if net.Counter("memnet.delivered") == 0 {
		t.Fatalf("memnet.delivered = 0 yet the cluster converged\n%s", c.TelemetrySummary())
	}
	if s, d := net.Counter("memnet.sends"), net.Counter("memnet.drops"); d >= s {
		t.Fatalf("memnet.drops (%d) >= memnet.sends (%d)", d, s)
	}
}

// TestChaosReorderDuplicate delivers duplicated and reordered frames; the
// protocol must treat redelivery as idempotent and out-of-order blocks as
// sync triggers, not corruption.
func TestChaosReorderDuplicate(t *testing.T) {
	c := newCluster(t, Options{
		N:      3,
		Faults: memnet.Params{Duplicate: 0.3, Reorder: 0.5, DelayMax: 100 * time.Millisecond},
	})
	c.Run(90 * time.Second)
	c.Net.SetDefaults(memnet.Params{})
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
}

// TestChaosForkQReconciliation is the seeded end-to-end fork-resolution
// test: two partitions publish data and mine divergent suffixes, then heal.
// The longest valid chain must win everywhere and every node's Q_i ledger
// must match the adopted chain, not the abandoned fork it may have credited
// during the split.
func TestChaosForkQReconciliation(t *testing.T) {
	c := newCluster(t, Options{N: 4})
	c.Run(20 * time.Second)

	c.Partition([]int{0, 1}, []int{2, 3})
	if _, err := c.Node(0).Publish([]byte("left-side payload"), "Road/Congestion", "west"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(2).Publish([]byte("right-side payload"), "Road/Congestion", "east"); err != nil {
		t.Fatal(err)
	}
	c.Run(60 * time.Second)

	leftTip, rightTip := c.Node(0).Tip(), c.Node(2).Tip()
	if leftTip.Hash == rightTip.Hash {
		t.Fatal("partitioned sides did not diverge — scenario exercised nothing")
	}
	longest := max(leftTip.Index, rightTip.Index)
	prefix := CommonPrefix(c.Nodes())

	c.Heal()
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	adopted := c.Node(0).Tip()
	if adopted.Index < longest {
		t.Fatalf("adopted chain height %d shorter than longest partition suffix %d", adopted.Index, longest)
	}
	checkInvariants(t, c) // includes Q_i/S_i reconciliation against the adopted chain
	// Divergence was asserted above, so at least one side abandoned its
	// suffix for the other's longer chain: the fork-adoption counters must
	// have seen it.
	var adoptions uint64
	for i := 0; i < 4; i++ {
		adoptions += c.NodeTelemetry(i).Snapshot().Counter("livenode.fork.adoptions")
	}
	if adoptions == 0 {
		t.Fatalf("no livenode.fork.adoptions counted despite divergent partitions\n%s", c.TelemetrySummary())
	}
	// The height gauge must track the adopted tip on every node.
	for i := 0; i < 4; i++ {
		if g := c.NodeTelemetry(i).Snapshot().Gauge("livenode.height"); g != int64(adopted.Index) {
			t.Fatalf("node %d livenode.height gauge = %d, tip index = %d", i, g, adopted.Index)
		}
	}
	for i, n := range c.Nodes() {
		if err := CheckPrefixPreserved(prefix, n); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	// Every node must agree on the reconciled ledger, not just the chain.
	s0, q0 := c.Node(0).LedgerStats()
	for i := 1; i < 4; i++ {
		s, q := c.Node(i).LedgerStats()
		for k := range s0 {
			if s[k] != s0[k] || q[k] != q0[k] {
				t.Fatalf("node %d ledger (S_%d=%d Q_%d=%d) disagrees with node 0 (S=%d Q=%d)",
					i, k, s[k], k, q[k], s0[k], q0[k])
			}
		}
	}
}

// TestChaosDeterministicEventLog runs the same faulty scenario twice with
// the same seed and requires bit-identical faultnet event logs — the
// reproducibility contract behind `-seed`.
func TestChaosDeterministicEventLog(t *testing.T) {
	run := func() string {
		c, err := NewCluster(Options{
			N:      3,
			Seed:   *seedFlag,
			Faults: memnet.Params{Drop: 0.1, Duplicate: 0.1, Reorder: 0.3, DelayMax: 50 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.ConnectAll(); err != nil {
			t.Fatal(err)
		}
		c.Run(20 * time.Second)
		c.Partition([]int{0}, []int{1, 2})
		c.Run(20 * time.Second)
		c.Heal()
		c.Run(20 * time.Second)
		return c.Net.EventLog()
	}
	first, second := run(), run()
	if first == "" {
		t.Fatal("scenario produced an empty event log")
	}
	if first != second {
		t.Fatalf("same seed produced different event logs:\nlen(first)=%d len(second)=%d", len(first), len(second))
	}
}
