package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/pos"
)

// Short-duration sweeps keep unit tests fast; the bench harness and
// cmd/figures run the paper-scale 500-minute versions.

func TestFig4ShapesHold(t *testing.T) {
	rows, err := RunFig4(Fig4Config{
		NodeCounts: []int{10, 30},
		Rates:      []float64{1, 3},
		Duration:   60 * time.Minute,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byKey := map[[2]int]Fig4Row{}
	for _, r := range rows {
		if r.ChainHeight == 0 {
			t.Fatalf("no blocks mined: %+v", r)
		}
		if r.Gini < 0 || r.Gini > PaperGiniBound+0.2 {
			t.Fatalf("gini %v out of plausible range: %+v", r.Gini, r)
		}
		if r.DeliverySec <= 0 || r.DeliverySec > 10 {
			t.Fatalf("delivery %v s implausible: %+v", r.DeliverySec, r)
		}
		if r.AvgTxMB <= 0 {
			t.Fatalf("no transmission recorded: %+v", r)
		}
		byKey[[2]int{r.Nodes, int(r.RatePerMin)}] = r
	}
	// Shape: more data means more total traffic at fixed node count.
	if byKey[[2]int{30, 3}].AvgTxMB <= byKey[[2]int{30, 1}].AvgTxMB {
		t.Errorf("avg tx did not grow with data rate: %+v vs %+v",
			byKey[[2]int{30, 3}], byKey[[2]int{30, 1}])
	}
	var buf bytes.Buffer
	PrintFig4(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestFig4PerNodeOverheadDecreasesWithSize(t *testing.T) {
	// Shape from Section VI-A: "decreasing on average overhead per node
	// when more nodes are presented" at a fixed data rate.
	rows, err := RunFig4(Fig4Config{
		NodeCounts: []int{10, 50},
		Rates:      []float64{2},
		Duration:   120 * time.Minute,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].AvgTxMB >= rows[0].AvgTxMB {
		t.Fatalf("per-node overhead did not decrease: n=10 %.1f MB, n=50 %.1f MB",
			rows[0].AvgTxMB, rows[1].AvgTxMB)
	}
	t.Logf("n=10: %.1f MB/node, n=50: %.1f MB/node", rows[0].AvgTxMB, rows[1].AvgTxMB)
}

func TestFig5OptimalBeatsRandom(t *testing.T) {
	// Full paper duration: shorter runs have too few deliveries (~80) to
	// separate the strategies from noise. The comparison is paired: both
	// placements replay one workload stream.
	rows, err := RunFig5(Fig5Config{
		NodeCounts: []int{20},
		Duration:   500 * time.Minute,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.OptDeliveries == 0 || r.RandDeliveries == 0 {
		t.Fatalf("missing deliveries: %+v", r)
	}
	// Headline claim: optimal placement delivers faster than random.
	if r.DeliveryRatio >= 1.0 {
		t.Fatalf("optimal placement not faster: ratio %.2f (%+v)", r.DeliveryRatio, r)
	}
	// And the message overhead stays comparable (paper: "almost the same").
	if r.OverheadRatio < 0.5 || r.OverheadRatio > 1.5 {
		t.Fatalf("overhead ratio %.2f not comparable: %+v", r.OverheadRatio, r)
	}
	t.Logf("delivery ratio %.2f (paper ≈ 0.85), overhead ratio %.2f (paper ≈ 1)",
		r.DeliveryRatio, r.OverheadRatio)
	var buf bytes.Buffer
	PrintFig5(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}

func TestFig6ReproducesEnergyClaims(t *testing.T) {
	res, err := RunFig6(Fig6Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.PoWBlocksPerPercent < 3 || res.PoWBlocksPerPercent > 5.2 {
		t.Fatalf("PoW blocks per 1%% = %.2f, paper ≈ 4", res.PoWBlocksPerPercent)
	}
	if res.PoSBlocksPerPercent < 9 || res.PoSBlocksPerPercent > 13.5 {
		t.Fatalf("PoS blocks per 1%% = %.2f, paper ≈ 11", res.PoSBlocksPerPercent)
	}
	if res.EnergySaving < 0.55 || res.EnergySaving > 0.75 {
		t.Fatalf("energy saving %.0f%%, paper ≈ 64%%", res.EnergySaving*100)
	}
	// The PoW battery trace must fall strictly faster than PoS.
	lastPoW := res.PoW[len(res.PoW)-1]
	if lastPoW.Blocks < len(res.PoS)-1 && lastPoW.Percent > 1 {
		t.Fatalf("PoW trace ended early without draining: %+v", lastPoW)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
	t.Logf("PoW %.2f blk/%%, PoS %.2f blk/%%, saving %.0f%%",
		res.PoWBlocksPerPercent, res.PoSBlocksPerPercent, res.EnergySaving*100)
}

// TestFig6PoSIsTheLottery replays Fig. 6's PoS chain through the
// validators: every block is a winning eq. 7–9 claim on the one-account
// ledger, and each is charged its winning second's checks plus the hit.
func TestFig6PoSIsTheLottery(t *testing.T) {
	cfg := (&Fig6Config{}).withDefaults()
	res, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chain := res.PoSChain
	if len(chain) != len(res.PoS) || len(chain) < 2 {
		t.Fatalf("%d PoS blocks for %d trace points", len(chain), len(res.PoS))
	}
	params := pos.Params{M: pos.DefaultM, T0: cfg.MeanBlockTime}
	ledger := pos.NewLedger([]identity.Address{chain[1].Miner})
	for i := 1; i < len(chain); i++ {
		prev, b := chain[i-1], chain[i]
		if err := b.VerifyLink(prev); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if err := params.ValidateClaim(prev, b, ledger); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if got, want := res.PoS[i].Hashes, b.MinedAfter+1; got != want {
			t.Fatalf("block %d charged %d hashes, want %d", i, got, want)
		}
		if err := ledger.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFig6RealHashing(t *testing.T) {
	// Real SHA-256 mining at reduced difficulty, scaled block count.
	res, err := RunFig6(Fig6Config{Seed: 2, Blocks: 30, DifficultyBits: 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PoW) < 31 {
		t.Fatalf("PoW mined only %d blocks", len(res.PoW)-1)
	}
	for _, p := range res.PoW[1:] {
		if p.Hashes == 0 {
			t.Fatalf("PoW block %d charged no hashes", p.Blocks)
		}
	}
	if res.EnergySaving <= 0 {
		t.Fatalf("no energy saving with real hashing: %+v", res)
	}
}

func TestFDCWeightAblation(t *testing.T) {
	rows, err := RunFDCWeightAblation([]float64{1, 1000}, 15, 40*time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Gini < 0 || r.Gini > 1 {
			t.Fatalf("gini out of range: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintFDCWeightAblation(&buf, rows)
	if buf.Len() == 0 {
		t.Fatal("empty table")
	}
}
