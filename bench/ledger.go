package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// A ledger file (bench/results/BENCH_<pr>.json) holds one or more full sets
// of runs of one commit: per set and workload, the end-to-end metrics of
// the untraced run (Metrics, what -compare judges) and everything the traced
// run printed (Traced: the per-layer metrics, and the traced run's own
// reading of the ungated end-to-end metrics, which carries the tracing
// overhead and is what a driver run with --trace 1 reports under those names).

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type ledgerRun struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Info      map[string]string  `json:"info"`
	Metrics   map[string]reading `json:"metrics"`
	Traced    map[string]reading `json:"traced,omitempty"`
}

type ledgerSet struct {
	Runs []ledgerRun `json:"runs"`
}

type ledger struct {
	Issue   int         `json:"issue"`
	Seed    int64       `json:"seed"`
	Seconds int         `json:"seconds"`
	Note    string      `json:"note"`
	Sets    []ledgerSet `json:"sets"`
}

// readings attaches units to the named metrics of an outcome; a metric the
// workload does not produce reads 0.
func readings(o *outcome, specs []metricSpec) map[string]reading {
	out := make(map[string]reading, len(specs))
	for _, m := range specs {
		out[m.Name] = reading{Value: o.metrics[m.Name], Unit: m.Unit}
	}
	return out
}

func writeLedger(path string, l *ledger) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// values collects one metric of one workload over the sets of a ledger.
func (l *ledger) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range l.Sets {
		for _, run := range set.Runs {
			if r, ok := run.Metrics[metric]; ok && run.Workload == workload {
				out = append(out, r.Value)
			}
		}
	}
	return out
}

// compareMetric applies the rule changes are judged by to one metric of one
// workload: a = the base's runs, b = the change's, paired by position, bound
// = the metric's bound on that workload.
//
//	better        there are at least ten pairs, b wins at least nine tenths of
//	              them (ties count for neither) and the medians differ by
//	              more than the spread between a's own quartiles
//	worse         b's median is worse than a's by more than the bound; for a
//	              metric read on the machine's clock (not Virtual) only with
//	              at least ten pairs, else unresolved: between two runs of
//	              one commit minutes apart this box moved set-up time by
//	              60 % and CPU and wall time by 15-30 %
//	unresolved    neither, and a's spread is wider than the bound, unless
//	              every run of b reads no worse than every run of a
//	within bound  otherwise
type comparison struct {
	MedianA, MedianB float64
	Q1A, Q3A         float64
	Q1B, Q3B         float64
	WinsB, Pairs     int
	Allowed          float64 // the bound as an amount of the metric
	Verdict          string
}

// minPairs is how many pairs of runs a gain, or a loss on the machine's
// clock, has to rest on.
const minPairs = 10

func compareMetric(spec metricSpec, bound float64, a, b []float64) comparison {
	var c comparison
	worse := func(x, y float64) bool { // x worse than y
		if spec.Better == "higher" {
			return x < y
		}
		return x > y
	}
	c.Q1A, c.MedianA, c.Q3A = spreadOf(a)
	c.Q1B, c.MedianB, c.Q3B = spreadOf(b)
	c.Pairs = min(len(a), len(b))
	for i := 0; i < c.Pairs; i++ {
		if worse(a[i], b[i]) {
			c.WinsB++
		}
	}
	c.Allowed = bound
	if !spec.Abs {
		c.Allowed = bound * abs(c.MedianA)
	}
	iqrA := c.Q3A - c.Q1A
	diff := abs(c.MedianB - c.MedianA)
	bNeverWorse := true
	for _, y := range b {
		for _, x := range a {
			if worse(y, x) {
				bNeverWorse = false
			}
		}
	}
	switch {
	case c.Pairs >= minPairs && float64(c.WinsB) >= 0.9*float64(c.Pairs) && !worse(c.MedianB, c.MedianA) && diff > iqrA:
		c.Verdict = "better"
	case worse(c.MedianB, c.MedianA) && diff > c.Allowed && (spec.Virtual || c.Pairs >= minPairs):
		c.Verdict = "worse"
	case worse(c.MedianB, c.MedianA) && diff > c.Allowed:
		c.Verdict = "unresolved"
	case iqrA > c.Allowed && !bNeverWorse:
		c.Verdict = "unresolved"
	default:
		c.Verdict = "within bound"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// spreadOf returns quartiles and median; a single run is its own quartiles.
func spreadOf(v []float64) (q1, q2, q3 float64) {
	switch len(v) {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	return quartiles(v)
}

// compareLedgers prints, for every workload and each of its end-to-end
// metrics, both sides' medians and quartiles, the pair wins and the verdict,
// every ratio with its base. It returns how many came out worse.
func compareLedgers(w io.Writer, a, b *ledger) int {
	worse := 0
	fmt.Fprintf(w, "base: %d sets, change: %d sets; bound = share of the base median unless marked abs\n", len(a.Sets), len(b.Sets))
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		for _, spec := range endToEndOn(wl.Name) {
			va, vb := a.values(wl.Name, spec.Name), b.values(wl.Name, spec.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			limit := spec.bound(wl.Name)
			c := compareMetric(spec, limit, va, vb)
			if c.Verdict == "worse" {
				worse++
			}
			ratio := "n/a (base 0)"
			if c.MedianA != 0 {
				ratio = fmt.Sprintf("%.4f of base %.6g", c.MedianB/c.MedianA, c.MedianA)
			}
			bound := fmt.Sprintf("%.0f%%", limit*100)
			if spec.Abs {
				bound = fmt.Sprintf("%g abs", limit)
			}
			fmt.Fprintf(w, "  %-20s %-12s base %.6g [%.6g, %.6g] change %.6g [%.6g, %.6g] %s = %s; change wins %d/%d pairs; bound %s (%s better)\n",
				spec.Name, c.Verdict, c.MedianA, c.Q1A, c.Q3A, c.MedianB, c.Q1B, c.Q3B, spec.Unit, ratio, c.WinsB, c.Pairs, bound, spec.Better)
		}
	}
	return worse
}

// sortedKeys returns a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
