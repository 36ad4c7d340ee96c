package chaos

import (
	"testing"
	"time"
)

// syncChaosResult captures everything the batched-sync scenario asserts on,
// so the same run can be replayed for the determinism check.
type syncChaosResult struct {
	eventLog        string
	tip             uint64
	fullReplayDelta uint64
	syncRounds      uint64
	syncBatches     uint64
	recoveredBlocks uint64
}

// runBatchedSyncScenario drives the satellite scenario: a 24-node seeded
// cluster warms its ledger snapshots, then suffers a half/half partition
// while its one persistent node is down, heals, and restarts that node from
// its now-stale WAL. Everyone must reconverge through incremental batched
// sync alone — no scratch replays once snapshots are warm.
func runBatchedSyncScenario(t *testing.T, seed int64, dataDir string) syncChaosResult {
	t.Helper()
	const (
		n             = 24
		snapshotEvery = 12
		warmHeight    = 2 * snapshotEvery // two retained snapshots ⇒ any fork ≤ snapshotEvery deep is covered
	)
	dirs := make([]string, n)
	dirs[0] = dataDir
	c := newCluster(t, Options{
		N:             n,
		Seed:          seed,
		DataDirs:      dirs,
		SnapshotEvery: snapshotEvery,
	})

	// Warm up until two snapshot generations exist everywhere. RunUntil is
	// deterministic for a fixed seed, so the double-run comparison still
	// holds.
	warm := func() bool {
		for _, node := range c.Nodes() {
			if node.Height() < warmHeight {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(warm, 15*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Snapshots are warm on every node: from here on, no sync may fall back
	// to a scratch replay.
	sumCounter := func(name string) (total uint64) {
		for i := 0; i < n; i++ {
			total += c.NodeTelemetry(i).Snapshot().Counter(name)
		}
		return total
	}
	replaysBefore := sumCounter("livenode.sync.full_replays")
	roundsBefore := sumCounter("livenode.sync.rounds")
	batchesBefore := sumCounter("livenode.sync.batches")

	// The persistent node goes down hard (no checkpoint), then the rest of
	// the cluster splits down the middle and diverges.
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	left, right := make([]int, 0, n/2), make([]int, 0, n/2)
	for i := 0; i < n; i++ {
		if i < n/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	c.Partition(left, right)
	c.Run(30 * time.Second)

	c.Heal()
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)

	res := syncChaosResult{
		eventLog:        c.Net.EventLog(),
		tip:             c.Node(0).Height(),
		fullReplayDelta: sumCounter("livenode.sync.full_replays") - replaysBefore,
		syncRounds:      sumCounter("livenode.sync.rounds") - roundsBefore,
		syncBatches:     sumCounter("livenode.sync.batches") - batchesBefore,
		recoveredBlocks: c.NodeTelemetry(0).Snapshot().Counter("store.recovery.blocks"),
	}
	c.Close()
	return res
}

// TestChaosBatchedSyncConvergence is the incremental-sync flagship
// scenario: 24 nodes, partition/heal plus a stale-WAL restart, convergence
// strictly through batched sync (zero scratch replays after warm-up), and a
// bit-identical faultnet event log when the same seed runs twice.
func TestChaosBatchedSyncConvergence(t *testing.T) {
	first := runBatchedSyncScenario(t, *seedFlag, t.TempDir())

	if first.recoveredBlocks == 0 {
		t.Fatal("restarted node recovered 0 blocks from its WAL — the stale-WAL leg exercised nothing")
	}
	if first.syncRounds == 0 {
		t.Fatal("no incremental sync rounds ran during partition/heal + restart")
	}
	if first.syncBatches == 0 {
		t.Fatal("convergence happened without a single sync batch — catch-up did not use the batched path")
	}
	if first.fullReplayDelta != 0 {
		t.Fatalf("sync_full_replays grew by %d after snapshots warmed, want 0", first.fullReplayDelta)
	}

	second := runBatchedSyncScenario(t, *seedFlag, t.TempDir())
	if first.eventLog == "" {
		t.Fatal("scenario produced an empty event log")
	}
	if first.eventLog != second.eventLog {
		t.Fatalf("same seed produced different event logs: len(first)=%d len(second)=%d",
			len(first.eventLog), len(second.eventLog))
	}
	if first.tip != second.tip {
		t.Fatalf("same seed converged to different heights: %d vs %d", first.tip, second.tip)
	}
}
