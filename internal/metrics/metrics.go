// Package metrics provides the Gini coefficient the evaluation reports for
// storage fairness (footnote 3, Fig. 4b).
package metrics

import "sort"

// Gini computes the Gini coefficient of the values:
//
//	G = Σ_i Σ_j |t_i − t_j| / (2 n Σ_j t_j)
//
// 0 means perfectly even, 1 maximally uneven. The paper reports storage
// disparity below 0.15 for its allocation (Fig. 4b). All-zero input
// returns 0 (perfectly even).
func Gini(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	if sum == 0 {
		return 0
	}
	// O(n log n) form over sorted values.
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	cum := 0.0
	for i, v := range sorted {
		cum += v * float64(2*(i+1)-n-1)
	}
	return cum / (float64(n) * sum)
}

// GiniInts is Gini over integer counts (storage items per node).
func GiniInts(values []int) float64 {
	f := make([]float64, len(values))
	for i, v := range values {
		f[i] = float64(v)
	}
	return Gini(f)
}
