package chaos

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/p2p/memnet"
)

// simOptions are the sim-* benchmarks' cluster options at n nodes: a 30 s
// block interval, 2000 items of storage, a ledger snapshot every 4 blocks
// and 8–12 ms links.
func simOptions(n int) Options {
	return Options{
		N:               n,
		Seed:            *seedFlag,
		T0:              30 * time.Second,
		StorageCapacity: 2000,
		SnapshotEvery:   4,
		Faults:          memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	}
}

// BenchmarkClusterSetup prices what a run pays before its first item, in the
// three steps the sim-* benchmarks' setup_s sums: build (NewCluster: the
// roster's keys, every node and its endpoint), connect (ConnectAll: every
// link of the mesh and the two hello bindings it carries) and warm-up (until
// every node holds block 1). Each is reported per cluster, and connect also
// per binding, n·(n−1) of them:
//
//	go test -run '^$' -bench BenchmarkClusterSetup -benchtime 5x ./internal/chaos
func BenchmarkClusterSetup(b *testing.B) {
	for _, n := range []int{64, 256, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			if n >= 1000 && testing.Short() {
				b.Skip("1000-node set-up skipped in -short")
			}
			var build, connect, warm time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				c, err := NewCluster(simOptions(n))
				if err != nil {
					b.Fatal(err)
				}
				c.Net.SetRecording(false)
				t1 := time.Now()
				if err := c.ConnectAll(); err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				warmUp(b, c)
				t3 := time.Now()
				c.Close()
				build, connect, warm = build+t1.Sub(t0), connect+t2.Sub(t1), warm+t3.Sub(t2)
			}
			per := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(per(build), "build_ms")
			b.ReportMetric(per(connect), "connect_ms")
			b.ReportMetric(per(warm), "warm_ms")
			b.ReportMetric(float64(connect.Nanoseconds())/float64(b.N)/float64(n*(n-1)), "connect_ns/binding")
		})
	}
}
