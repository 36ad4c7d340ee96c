package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/meta"
	"repro/internal/repair"
)

// BenchmarkRepairConvergence regenerates the EXPERIMENTS.md repair
// numbers: how much virtual time the self-healing data plane needs to
// bring every live item back to its replica floor after a single churn
// event kills a fraction of the storing nodes, at 24 and 64 nodes.
//
//	go test -bench BenchmarkRepairConvergence -benchtime 1x ./internal/chaos
//
// Reported metrics are virtual (simulated) quantities, deterministic per
// seed: vsec/heal is the virtual seconds from the churn event to full
// replication, repairB and consB the cumulative repair and consensus
// wire-bytes summed over all nodes at that point.
func BenchmarkRepairConvergence(b *testing.B) {
	for _, n := range []int{24, 64} {
		for _, frac := range []float64{0.1, 0.3, 0.5} {
			b.Run(fmt.Sprintf("n=%d/churn=%.0f%%", n, frac*100), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					measureRepairConvergence(b, n, frac)
				}
			})
		}
	}
}

func measureRepairConvergence(b *testing.B, n int, frac float64) {
	const floor = alloc.DefaultMinReplicas
	items := 2 * n / 3
	c, err := NewCluster(Options{
		N:                  n,
		Seed:               1,
		StorageCapacity:    48,
		RepairWorkers:      2,
		RepairSuspectAfter: 4 * time.Second,
		RepairHysteresis:   4 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.ConnectAll(); err != nil {
		b.Fatal(err)
	}
	now := func() time.Duration { return c.Clock.Now().Sub(c.Epoch) }

	warmUp(b, c)
	ids := make([]meta.DataID, items)
	for k := 0; k < items; k++ {
		it, err := c.Node(k%2).Publish([]byte(fmt.Sprintf("payload %03d", k)), "Road/Congestion", "junction")
		if err != nil {
			b.Fatal(err)
		}
		ids[k] = it.ID
	}
	placed := func() bool {
		idx := repair.NewIndex(n)
		idx.Rebuild(c.Node(0).ChainSnapshot())
		for _, id := range ids {
			if p := idx.Providers(id); len(p) == 0 || len(p) >= n {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(placed, 10*time.Minute); err != nil {
		b.Fatal(err)
	}

	churnAt := now()
	killed, err := c.KillStoringNodes(frac, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	healed := func() bool {
		return c.Converged() && c.CheckReplication(floor) == nil
	}
	if err := c.RunUntil(healed, time.Hour); err != nil {
		b.Fatalf("%v; replication: %v", err, c.CheckReplication(floor))
	}
	heal := now() - churnAt

	sumCounter := func(name string) (total uint64) {
		for i := 0; i < n; i++ {
			total += c.NodeTelemetry(i).Snapshot().Counter(name)
		}
		return total
	}
	b.ReportMetric(heal.Seconds(), "vsec/heal")
	b.ReportMetric(float64(sumCounter("livenode.wire.repair_bytes")), "repairB")
	b.ReportMetric(float64(sumCounter("livenode.wire.consensus_bytes")), "consB")
	b.Logf("n=%d churn=%.0f%%: killed %d nodes %v, healed in %v virtual; "+
		"repair: launched=%d completed=%d throttled=%d reannounced=%d; "+
		"wire: repair=%dB consensus=%dB data=%dB",
		n, frac*100, len(killed), killed, heal,
		sumCounter("livenode.repair.enqueued"),
		sumCounter("livenode.repair.completed"), sumCounter("livenode.repair.throttled"),
		sumCounter("livenode.repair.reannounced"),
		sumCounter("livenode.wire.repair_bytes"), sumCounter("livenode.wire.consensus_bytes"),
		sumCounter("livenode.wire.data_bytes"))
}
