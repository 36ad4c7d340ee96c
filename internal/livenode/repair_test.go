package livenode

import (
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/telemetry"
)

// assignment returns the latest on-chain storing set for id as seen by n.
func assignment(n *Node, id meta.DataID) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	it := n.eng.LiveItem(id)
	if it == nil {
		return nil
	}
	return append([]int(nil), it.StoringNodes...)
}

// TestLiveRepairReReplicates kills a storing node on a real-TCP cluster
// and waits for the self-healing pipeline to run end to end: the churn
// detectors mark the node dead, a miner packs a repair re-announcement
// excluding it, and the newly assigned node fetches the content.
func TestLiveRepairReReplicates(t *testing.T) {
	const n = 4
	const probeEvery = 200 * time.Millisecond
	idents, accounts := testRoster(n)
	epoch := time.Now()
	regs := make([]*telemetry.Registry, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		regs[i] = telemetry.NewRegistry()
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			ListenAddr:  "127.0.0.1:0",
			// Small capacity: FDC turns positive after the first block, so
			// item placements narrow to the replica floor instead of the
			// degenerate everything-everywhere clique optimum.
			StorageCapacity:    48,
			Telemetry:          regs[i],
			RepairWorkers:      2,
			RepairProbeEvery:   probeEvery,
			RepairSuspectAfter: 2 * time.Second,
			RepairHysteresis:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	closed := make([]bool, n)
	defer func() {
		for i, node := range nodes {
			if !closed[i] {
				node.Close()
			}
		}
	}()
	for i, a := range nodes {
		for j, b := range nodes {
			if i < j {
				if err := a.Connect(b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Let a block land first so every node's storage shows some use and
	// the next placement is selective.
	waitFor(t, 30*time.Second, "first block everywhere", func() bool {
		for _, node := range nodes {
			if node.Height() < 1 {
				return false
			}
		}
		return true
	})

	it, err := nodes[0].Publish([]byte("replica under churn"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for every assigned node to actually hold the bytes, not just
	// for the placement to land: killing the victim while it is still the
	// sole holder (the producer, before its replicas' initial fetches
	// complete) destroys the only copy, which no repair protocol can undo.
	var storing []int
	waitFor(t, 30*time.Second, "item placed below the full mesh", func() bool {
		storing = assignment(nodes[0], it.ID)
		if len(storing) == 0 || len(storing) >= n {
			return false
		}
		for _, sn := range storing {
			if !nodes[sn].HasData(it.ID) {
				return false
			}
		}
		return true
	})

	victim := storing[0]
	if err := nodes[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	closed[victim] = true

	waitFor(t, 60*time.Second, "item re-replicated off the dead node", func() bool {
		var ref []int
		for i, node := range nodes {
			if i == victim {
				continue
			}
			ref = assignment(node, it.ID)
			break
		}
		if len(ref) < 2 {
			return false
		}
		for _, sn := range ref {
			if sn == victim {
				return false
			}
			if !nodes[sn].HasData(it.ID) {
				return false
			}
		}
		return true
	})

	// Re-replication (repair_bytes counts it together with liveness probes)
	// moved real bytes, and strictly fewer than consensus.
	var repairBytes, heartbeatBytes, consensusBytes uint64
	for i, reg := range regs {
		if i == victim {
			continue
		}
		snap := reg.Snapshot()
		repairBytes += snap.Counter("livenode.wire.repair_bytes")
		heartbeatBytes += snap.Counter("livenode.wire.heartbeat_bytes")
		consensusBytes += snap.Counter("livenode.wire.consensus_bytes")
	}
	t.Logf("re-replication %d B, liveness %d B, consensus plane %d B",
		repairBytes-heartbeatBytes, heartbeatBytes, consensusBytes)
	if repairBytes == heartbeatBytes {
		t.Fatal("repair plane fetched no bytes")
	}
	if repairBytes-heartbeatBytes >= consensusBytes {
		t.Fatalf("re-replication bytes %d not below consensus bytes %d", repairBytes-heartbeatBytes, consensusBytes)
	}
	// Liveness has its own budget. A four-node roster fits in one probe
	// sample, so a tick costs a node at most one 9-byte probe to, and one
	// full-digest ack (5 + 6 + 4 per other node) for, each of its peers —
	// at this tick rate more than the handful of blocks mined meanwhile.
	ticks := uint64(time.Since(epoch)/probeEvery) + 1
	const perTick = (n - 1) * (9 + 5 + 6 + 4*(n-1))
	if limit := (n - 1) * ticks * perTick; heartbeatBytes > limit {
		t.Fatalf("liveness bytes %d over %d (%d ticks of %d B on each survivor)", heartbeatBytes, limit, ticks, perTick)
	}
}
