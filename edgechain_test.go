package edgechain_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	edgechain "repro"
)

func TestRunSimulationFacade(t *testing.T) {
	cfg := edgechain.DefaultConfig(10)
	cfg.Seed = 3
	cfg.DataRatePerMin = 2
	res, err := edgechain.RunSimulation(cfg, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChainHeight == 0 {
		t.Fatal("no blocks mined through the facade")
	}
	if res.NumNodes != 10 {
		t.Fatalf("NumNodes = %d, want 10", res.NumNodes)
	}
}

func TestRunSimulationRejectsBadConfig(t *testing.T) {
	cfg := edgechain.DefaultConfig(0)
	if _, err := edgechain.RunSimulation(cfg, time.Minute); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestGiniFacade(t *testing.T) {
	if g := edgechain.Gini([]float64{1, 1, 1}); g != 0 {
		t.Fatalf("Gini of equal values = %v, want 0", g)
	}
}

func TestFigureRunnersFacade(t *testing.T) {
	rows4, err := edgechain.RunFig4(edgechain.Fig4Config{
		NodeCounts: []int{10}, Rates: []float64{1},
		Duration: 20 * time.Minute, Seed: 1,
	})
	if err != nil || len(rows4) != 1 {
		t.Fatalf("RunFig4: rows=%d err=%v", len(rows4), err)
	}
	rows5, err := edgechain.RunFig5(edgechain.Fig5Config{
		NodeCounts: []int{10}, Duration: 20 * time.Minute, Seed: 1,
	})
	if err != nil || len(rows5) != 1 {
		t.Fatalf("RunFig5: rows=%d err=%v", len(rows5), err)
	}
	res6, err := edgechain.RunFig6(edgechain.Fig6Config{Seed: 1, Blocks: 50})
	if err != nil || len(res6.PoW) == 0 {
		t.Fatalf("RunFig6: err=%v", err)
	}
}

// ExampleRunSimulation demonstrates the one-call API.
func ExampleRunSimulation() {
	cfg := edgechain.DefaultConfig(10)
	cfg.Seed = 1
	cfg.DataRatePerMin = 1
	res, err := edgechain.RunSimulation(cfg, 10*time.Minute)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.ChainHeight > 0, res.StorageGini < 0.5)
	// Output: true true
}

// TestStreamWorkloadFacade drives a simulation from an open-loop stream
// (diurnal + burst arrivals, Zipf types, multiplexed users) and checks the
// trade loop actually ran: items produced, requesters served.
func TestStreamWorkloadFacade(t *testing.T) {
	const nodes = 12
	cfg := edgechain.DefaultConfig(nodes)
	cfg.Seed = 1
	cfg.RequesterFraction = 0.25
	cfg.Stream = func(sc *edgechain.StreamWorkloadConfig) {
		sc.RatePerMin = 3
		sc.DiurnalPeriod = 30 * time.Minute
		sc.DiurnalAmplitude = 0.7
		sc.BurstEvery = 30 * time.Minute
		sc.BurstOffset = 5 * time.Minute
		sc.BurstDuration = 3 * time.Minute
		sc.BurstFactor = 6
		sc.TypeZipfS = 1.2
		sc.Users = 50_000
		sc.UserZipfS = 1.3
		sc.SessionEpoch = 10 * time.Minute
	}
	res, err := edgechain.RunSimulation(cfg, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.DataGenerated == 0 || res.Deliveries == 0 {
		t.Fatalf("stream-driven run produced %d items, delivered %d requests",
			res.DataGenerated, res.Deliveries)
	}
}

// TestStreamFacadeDeterministic checks that a stream built through the
// facade replays: same config, same events.
func TestStreamFacadeDeterministic(t *testing.T) {
	sc := edgechain.StreamWorkloadConfig{
		Duration: 30 * time.Minute, RatePerMin: 2, NumNodes: 8,
		Requesters:      edgechain.PickRequesterPool(8, 0.25, rand.New(rand.NewSource(1))),
		RequestsPerItem: 1, Seed: 4,
	}
	var runs [2][]edgechain.WorkloadEvent
	for k := range runs {
		s, err := edgechain.NewWorkloadStream(sc)
		if err != nil {
			t.Fatal(err)
		}
		for ev, ok := s.Next(); ok; ev, ok = s.Next() {
			runs[k] = append(runs[k], ev)
		}
	}
	if len(runs[0]) == 0 || fmt.Sprint(runs[0]) != fmt.Sprint(runs[1]) {
		t.Fatalf("stream did not replay: %d vs %d events", len(runs[0]), len(runs[1]))
	}
}
