package experiments

import (
	"fmt"
	"io"
	"time"
)

// --- A1: FDC weight sweep ---------------------------------------------------

// FDCWeightRow reports fairness/latency for one value of the scaling
// factor A of eq. (3). The paper fixed A = 1000 "after some tests"; this
// ablation shows the trade-off that choice navigates.
type FDCWeightRow struct {
	Weight      float64
	Gini        float64
	DeliverySec float64
	// StoredUnits is the total storage consumed across all nodes — low A
	// opens facilities freely and replicates heavily, which is what the
	// fairness weight holds in check.
	StoredUnits int
}

// RunFDCWeightAblation sweeps the FDC weight A.
func RunFDCWeightAblation(weights []float64, nodes int, duration time.Duration, seed int64) ([]FDCWeightRow, error) {
	if len(weights) == 0 {
		weights = []float64{1, 10, 100, 1000, 10000}
	}
	rows := make([]FDCWeightRow, 0, len(weights))
	for _, w := range weights {
		cfg := DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 2
		cfg.FDCWeight = w
		res, err := run(cfg, duration)
		if err != nil {
			return nil, err
		}
		stored := 0
		for _, c := range res.StorageCounts {
			stored += c
		}
		rows = append(rows, FDCWeightRow{Weight: w, Gini: res.StorageGini, DeliverySec: res.DeliverySec, StoredUnits: stored})
	}
	return rows, nil
}

// PrintFDCWeightAblation renders A1.
func PrintFDCWeightAblation(w io.Writer, rows []FDCWeightRow) {
	fmt.Fprintln(w, "Ablation A1 — FDC weight A (paper: 1000)")
	fmt.Fprintf(w, "%10s %8s %14s %14s\n", "A", "gini", "delivery (s)", "stored units")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8.3f %14.2f %14d\n", r.Weight, r.Gini, r.DeliverySec, r.StoredUnits)
	}
}
