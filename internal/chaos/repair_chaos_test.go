package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/meta"
	"repro/internal/repair"
)

// repairChaosResult captures everything the self-healing scenario asserts
// on, so the same run can be replayed for the determinism check.
type repairChaosResult struct {
	eventLog       string
	tip            uint64
	killed         string
	elapsed        time.Duration // virtual time the scenario ran
	repairBytes    uint64        // re-replication and liveness together
	heartbeatBytes uint64        // liveness alone: probes and acks
	consensusBytes uint64
	completed      uint64
	reannounced    uint64
}

// Liveness cadence of the scenario: livenode's default tick and the probe
// fan-out it derives for a 24-node roster, named here because the heartbeat
// bound below is written in them.
const (
	repairProbeEvery = 2 * time.Second
	repairFanout     = 4
)

// runRepairScenario drives the tentpole chaos scenario: a 24-node cluster
// with the repair plane on publishes a batch of never-expiring items, then
// loses 30% of its storing nodes (weighted by items stored) in one churn
// event. The survivors must detect the deaths, re-announce replacement
// placements on chain, and re-replicate every item back to its floor.
func runRepairScenario(t *testing.T, seed int64) repairChaosResult {
	t.Helper()
	const (
		n     = 24
		items = 16
		floor = alloc.DefaultMinReplicas
	)
	c := newCluster(t, Options{
		N:    n,
		Seed: seed,
		// Small capacity: FDC turns positive once the first block gives
		// every node a recent-cache slot, so placements narrow to the
		// replica floor instead of the degenerate full-mesh optimum.
		StorageCapacity: 48,
		RepairWorkers:   2,
		// Tighter churn verdicts than the wall-clock defaults: peers
		// heartbeat every 2s (the probe default), so 4s+4s of silence is
		// still two missed beats before suspicion and two more before
		// death — no false positives, faster scenario turnaround.
		RepairSuspectAfter: 4 * time.Second,
		RepairHysteresis:   4 * time.Second,
		RepairProbeEvery:   repairProbeEvery,
	})
	now := func() time.Duration { return c.Clock.Now().Sub(c.Epoch) }

	// Let the first block land everywhere so every node's storage shows
	// some use and subsequent placements are selective.
	warmUp(t, c)

	// Nodes 0 and 1 publish and stay protected from the churn event: the
	// producers keep serving content for the broadcast-fallback path.
	ids := make([]meta.DataID, items)
	for k := 0; k < items; k++ {
		it, err := c.Node(k%2).Publish([]byte(fmt.Sprintf("sensor reading %02d", k)), "Road/Congestion", "junction")
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = it.ID
	}
	placed := func() bool {
		idx := repair.NewIndex(n)
		idx.Rebuild(c.Node(0).ChainSnapshot())
		idx.ExpireUntil(now())
		for _, id := range ids {
			if p := idx.Providers(id); len(p) == 0 || len(p) >= n {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(placed, 10*time.Minute); err != nil {
		t.Fatal(err)
	}

	killed, err := c.KillStoringNodes(0.3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(killed) < 2 {
		t.Fatalf("churn event killed only %v — scenario exercises too little", killed)
	}
	// The kill must create a real healing obligation, or the recovery
	// phase below would pass vacuously.
	if c.CheckReplication(floor) == nil {
		t.Fatal("killing 30% of storing nodes left no replication deficit — placements too wide")
	}

	healed := func() bool {
		return c.Converged() && c.CheckReplication(floor) == nil
	}
	if err := c.RunUntil(healed, 30*time.Minute); err != nil {
		t.Fatalf("%v; replication: %v", err, c.CheckReplication(floor))
	}
	if err := c.Settle(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if err := c.CheckReplication(floor); err != nil {
		t.Fatal(err)
	}

	sumCounter := func(name string) (total uint64) {
		for i := 0; i < n; i++ {
			total += c.NodeTelemetry(i).Snapshot().Counter(name)
		}
		return total
	}
	res := repairChaosResult{
		eventLog:       c.Net.EventLog(),
		tip:            c.Nodes()[0].Height(),
		killed:         fmt.Sprint(killed),
		elapsed:        now(),
		repairBytes:    sumCounter("livenode.wire.repair_bytes"),
		heartbeatBytes: sumCounter("livenode.wire.heartbeat_bytes"),
		consensusBytes: sumCounter("livenode.wire.consensus_bytes"),
		completed:      sumCounter("livenode.repair.completed"),
		reannounced:    sumCounter("livenode.repair.reannounced"),
	}
	c.Close()
	return res
}

// TestChaosRepairReplication is the self-healing flagship scenario: 24
// nodes, 30% of storing nodes killed in one churn event, every live item
// back at its replica floor and fetchable from every assigned survivor,
// the §11 byte invariants, and a bit-identical run when the same seed
// executes twice. The invariants split repair_bytes in two: re-replication
// (repair_bytes − heartbeat_bytes), what the repair byte budget covers, stays strictly
// below consensus bytes; liveness (heartbeat_bytes) has a budget of its own,
// the per-tick probe bound times the ticks. Liveness alone outweighs the
// consensus plane at some seeds: the probes follow the clock, the blocks do
// not.
func TestChaosRepairReplication(t *testing.T) {
	first := runRepairScenario(t, *seedFlag)

	if first.reannounced == 0 {
		t.Fatal("no repair re-announcements were mined — recovery bypassed the repair plane")
	}
	if first.completed == 0 {
		t.Fatal("no repair fetches completed — replicas returned without the self-audit's fetches")
	}
	rereplication := first.repairBytes - first.heartbeatBytes
	t.Logf("re-replication %d B, liveness %d B, consensus %d B over %v",
		rereplication, first.heartbeatBytes, first.consensusBytes, first.elapsed)
	if rereplication == 0 {
		t.Fatal("repair plane fetched no bytes")
	}
	if rereplication >= first.consensusBytes {
		t.Fatalf("re-replication wire-bytes %d not strictly below consensus wire-bytes %d",
			rereplication, first.consensusBytes)
	}
	// A node sends at most repairFanout probes per tick and as many more at
	// its Connect, each answered by at most one ack: 5 B for the probe (an
	// empty payload under the 5-byte frame header), at most 37 B for the ack
	// (the header and 16 digest entries of 2 B: a gap below the 24-node
	// roster and an age below the 8 s dead window, 80 units, one byte each).
	ticks := uint64(first.elapsed/repairProbeEvery) + 1
	if limit := 24 * repairFanout * (ticks + 1) * (5 + 37); first.heartbeatBytes > limit {
		t.Fatalf("liveness wire-bytes %d over the probe bound %d (%d ticks)", first.heartbeatBytes, limit, ticks)
	}

	second := runRepairScenario(t, *seedFlag)
	if first.eventLog == "" {
		t.Fatal("scenario produced an empty event log")
	}
	if first.eventLog != second.eventLog {
		t.Fatalf("same seed produced different event logs: len(first)=%d len(second)=%d",
			len(first.eventLog), len(second.eventLog))
	}
	if first.killed != second.killed {
		t.Fatalf("same seed killed different nodes: %s vs %s", first.killed, second.killed)
	}
	if first.tip != second.tip {
		t.Fatalf("same seed converged to different heights: %d vs %d", first.tip, second.tip)
	}
}
