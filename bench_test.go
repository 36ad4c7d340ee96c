package edgechain

// Benchmark harness: one benchmark per paper figure and per DESIGN.md
// ablation. Each iteration runs a reduced-duration simulation (benchmarks
// would otherwise take minutes per iteration); cmd/figures regenerates the
// full 500-minute paper-scale sweeps and EXPERIMENTS.md records those
// numbers. The reported custom metrics carry the figure's measurement so
// `go test -bench` output doubles as a sanity table.

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/pos"
	"repro/internal/ufl"
)

// benchDuration keeps one benchmark iteration around a second of wall time.
const benchDuration = 60 * time.Minute

// BenchmarkFig4 regenerates Fig. 4 (overhead / Gini / delivery) for the
// corner cells of the sweep.
func BenchmarkFig4(b *testing.B) {
	for _, bc := range []struct {
		nodes int
		rate  float64
	}{
		{10, 1}, {10, 3}, {50, 1}, {50, 3},
	} {
		b.Run(byNodesRate(bc.nodes, bc.rate), func(b *testing.B) {
			var last experiments.Fig4Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig4(experiments.Fig4Config{
					NodeCounts: []int{bc.nodes},
					Rates:      []float64{bc.rate},
					Duration:   benchDuration,
					Seed:       int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			b.ReportMetric(last.AvgTxMB, "tx-MB/node")
			b.ReportMetric(last.Gini, "gini")
			b.ReportMetric(last.DeliverySec, "delivery-s")
		})
	}
}

func byNodesRate(n int, r float64) string {
	return "nodes=" + itoa(n) + "/rate=" + itoa(int(r))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFig5 regenerates Fig. 5 (optimal vs random placement).
func BenchmarkFig5(b *testing.B) {
	for _, nodes := range []int{10, 30, 50} {
		b.Run("nodes="+itoa(nodes), func(b *testing.B) {
			var last experiments.Fig5Row
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFig5(experiments.Fig5Config{
					NodeCounts: []int{nodes},
					Duration:   benchDuration,
					Seed:       int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				last = rows[0]
			}
			b.ReportMetric(last.OptimalSec, "optimal-s")
			b.ReportMetric(last.RandomSec, "random-s")
			b.ReportMetric(last.DeliveryRatio, "delivery-ratio")
			b.ReportMetric(last.OverheadRatio, "overhead-ratio")
		})
	}
}

// BenchmarkFig6 regenerates Fig. 6 (PoW vs PoS battery drain).
func BenchmarkFig6(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(experiments.Fig6Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.PoWBlocksPerPercent, "pow-blk/pct")
	b.ReportMetric(last.PoSBlocksPerPercent, "pos-blk/pct")
	b.ReportMetric(last.EnergySaving*100, "saving-pct")
}

// BenchmarkAblationFDCWeight sweeps the FDC scaling factor A (DESIGN.md A1).
func BenchmarkAblationFDCWeight(b *testing.B) {
	for _, w := range []float64{1, 1000} {
		b.Run("A="+itoa(int(w)), func(b *testing.B) {
			var gini float64
			for i := 0; i < b.N; i++ {
				rows, err := experiments.RunFDCWeightAblation(
					[]float64{w}, 20, 40*time.Minute, int64(i+1))
				if err != nil {
					b.Fatal(err)
				}
				gini = rows[0].Gini
			}
			b.ReportMetric(gini, "gini")
		})
	}
}

// BenchmarkSimulationStep measures raw simulation throughput: one default
// 30-node deployment minute.
func BenchmarkSimulationStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(30)
		cfg.Seed = int64(i + 1)
		cfg.DataRatePerMin = 2
		if _, err := RunSimulation(cfg, 10*time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUFLGreedy measures the placement solver on paper-sized
// instances (50 nodes).
func BenchmarkUFLGreedy(b *testing.B) {
	in := benchInstance(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ufl.Greedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoSRound measures a full PoS round decision (hit + winning
// time) for 50 nodes.
func BenchmarkPoSRound(b *testing.B) {
	params := pos.DefaultParams()
	led, prev := benchLedger(50)
	bval := params.AmendmentB(led.N(), led.UBar())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < led.N(); j++ {
			hit := params.Hit(prev, led.Account(j))
			pos.TimeToMine(hit, led.U(j), bval)
		}
	}
}
