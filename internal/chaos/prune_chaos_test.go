package chaos

import (
	"testing"
	"time"
)

// runPrunedPartitionHeal drives one full mixed-replica scenario and
// returns the faultnet event log. Nodes 0 and 1 run the finite-lifetime
// chain (PruneDepth 16, so engine checkpoints finalize every 16 blocks and
// bodies below the snapshot-covered horizon are discarded); nodes 2 and 3
// are archival. The cluster mines long enough for pruning to actually run,
// splits with one pruned and one archival node on each side, diverges,
// heals, and must converge header-for-header with all invariants intact.
func runPrunedPartitionHeal(t *testing.T, seed int64) string {
	t.Helper()
	c := newCluster(t, Options{
		N:             4,
		Seed:          seed,
		PruneDepth:    16,
		SnapshotEvery: 16,
		PruneNodes:    []int{0, 1},
	})

	// Mine well past depth + checkpoint + snapshot lag so both pruned
	// nodes have discarded bodies before the fault hits.
	c.Run(250 * time.Second)
	for _, i := range []int{0, 1} {
		if c.Node(i).BodyBase() == 0 {
			t.Fatalf("node %d never pruned (height %d)\n%s", i, c.Node(i).Height(), c.TelemetrySummary())
		}
		if runs := c.NodeTelemetry(i).Snapshot().Counter("livenode.prune.runs"); runs == 0 {
			t.Fatalf("node %d livenode.prune.runs = 0 despite PruneDepth", i)
		}
	}
	for _, i := range []int{2, 3} {
		if base := c.Node(i).BodyBase(); base != 0 {
			t.Fatalf("archival node %d pruned to base %d", i, base)
		}
	}

	// Checkpoint finality means a fork reaching at or below the last
	// checkpoint is never adopted; partition just after a checkpoint
	// boundary so both divergent suffixes stay inside the open window.
	if err := c.RunUntil(func() bool {
		return c.ConvergedHeaders() && c.Node(0).Height()%16 <= 4
	}, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	forkBase := c.Node(0).Height()

	// One pruned + one archival node per side: fork resolution must work
	// between every replica-shape pairing after the heal.
	c.Partition([]int{0, 2}, []int{1, 3})
	if err := c.RunUntil(func() bool {
		return c.Node(0).Height() >= forkBase+3 && c.Node(1).Height() >= forkBase+3
	}, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if c.Node(0).Tip().Hash == c.Node(1).Tip().Hash {
		t.Fatal("partitioned sides did not diverge — scenario exercised nothing")
	}
	prefix := CommonPrefix(c.Nodes()[2:]) // archival nodes hold full snapshots

	c.Heal()
	if err := c.RunUntil(c.ConvergedHeaders, 10*time.Minute); err != nil {
		t.Fatalf("mixed cluster never reconverged: %v\n%s", err, c.TelemetrySummary())
	}

	// The archival replicas expose a full chain: validate it end-to-end
	// and check no finalized prefix block was rolled back.
	full := c.Nodes()[2:]
	if err := CheckChainValidity(full[0].ChainSnapshot(), c.Accounts(), c.Params()); err != nil {
		t.Fatal(err)
	}
	for i, n := range full {
		if err := CheckPrefixPreserved(prefix, n); err != nil {
			t.Fatalf("archival node %d: %v", i+2, err)
		}
	}
	// Derived ledger state must agree across replica shapes: a pruned
	// replica that adopted the winning suffix through a retained ledger
	// snapshot lands on exactly the state an archival full replay gives.
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
	now := c.Clock.Now().Sub(c.Epoch)
	for i, n := range full {
		if err := CheckLedgerAccounting(n, c.Accounts(), now); err != nil {
			t.Fatalf("archival node %d: %v", i+2, err)
		}
	}
	// The pruned nodes stayed pruned through the fork: the body window
	// never regrew to the full chain.
	for _, i := range []int{0, 1} {
		if c.Node(i).BodyBase() == 0 {
			t.Fatalf("node %d lost its prune horizon resolving the fork", i)
		}
	}
	return c.Net.EventLog()
}

// TestChaosPrunedPartitionHeal runs the mixed pruned/archival
// partition-heal scenario twice with the same seed and requires
// bit-identical faultnet event logs: pruning and snapshot-anchored fork
// resolution must not introduce any nondeterminism into the protocol.
func TestChaosPrunedPartitionHeal(t *testing.T) {
	first := runPrunedPartitionHeal(t, *seedFlag)
	second := runPrunedPartitionHeal(t, *seedFlag)
	if first == "" {
		t.Fatal("scenario produced an empty event log")
	}
	if first != second {
		t.Fatalf("same seed produced different event logs:\nlen(first)=%d len(second)=%d", len(first), len(second))
	}
}
