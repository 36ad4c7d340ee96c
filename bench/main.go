// Command bench is the repository's performance ledger: four named
// workloads run against the unmodified program through its public
// functions, every metric printed by name with its unit, outputs checked.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
)

const issue = 12

func main() {
	var (
		workload = flag.String("workload", "all", "one of tcp-steady, sim-flash, sim-scale, sim-churn, or all")
		seed     = flag.Int64("seed", 1, "every workload's inputs derive from it")
		seconds  = flag.Int("seconds", 20, "how long one run measures; the virtual horizons scale with it")
		trace    = flag.Int("trace", 0, "1 = traced run: spans, CPU profile, counters and probes give the per-layer metrics")
		sets     = flag.Int("sets", 2, "with -workload all: how many full sets of runs the ledger file gets")
		outPath  = flag.String("out", fmt.Sprintf("bench/results/BENCH_%d.json", issue), "with -workload all: the ledger file to write")
		results  = flag.String("results", "bench/results", "where a traced run writes trace_<workload>.json")
		smoke    = flag.Bool("smoke", false, "every workload at a tenth of the horizon; schema and correctness checks only")
		verify   = flag.Bool("verify", false, "run every sim-* workload twice and fail unless digest, event count and virtual metrics agree")
		compare  = flag.Bool("compare", false, "compare two ledger files: -compare base.json change.json")
	)
	flag.Parse()
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *verify:
		err = runVerify(*seed, *seconds)
	case *smoke:
		err = runSmoke(*seed, max(1, *seconds/10))
	case *workload == "all":
		err = runLedger(*seed, *seconds, *sets, *trace != 0, *outPath, *results)
	default:
		err = runOne(*workload, *seed, *seconds, *trace != 0, *results)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload runs one workload once. A traced run adds the harness spans,
// a CPU profile folded into per-layer shares, and the probes.
func runWorkload(name string, seed int64, seconds int, traced bool, results string) (*outcome, error) {
	sim, isSim := simSpecs[name]
	if !isSim && name != "tcp-steady" {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// Scratch space stays inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	// Set-up comes first, outside the measured window and outside the CPU
	// profile, whose shares then describe the window alone. The TCP rounds set
	// up inside runTCP, once per round: their builds are a hundredth of the
	// profile.
	var cluster *chaos.Cluster
	var setups []float64
	if isSim {
		if cluster, setups, err = setUpSim(sim, seed, filepath.Join(tmp, "data"), rec); err != nil {
			return nil, err
		}
	}
	stopProfile := func() error { return nil }
	profile := filepath.Join(tmp, "cpu.pprof")
	if traced {
		if stopProfile, err = startProfile(profile); err != nil {
			if cluster != nil {
				cluster.Close()
			}
			return nil, err
		}
	}
	var out *outcome
	if isSim {
		out, err = runSim(sim, seed, seconds, rec, cluster)
	} else {
		out, err = runTCP(seed, seconds, rec)
	}
	if stopErr := stopProfile(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	m := out.metrics
	if isSim {
		m["setup_s"] = median(setups)
		out.info["setup_samples"] = fmt.Sprintf("n=%d first=%.6f s", len(setups), setups[0])
	}
	// What is not an end-to-end metric on this workload is not reported as one.
	for _, spec := range endToEnd {
		if !spec.on(name) {
			delete(m, spec.Name)
		}
	}
	if !traced {
		return out, nil
	}

	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	for layer, share := range shares {
		m[layer+".cpu_share"] = share
	}
	if err := runProbes(out, !isSim, sim.churn, filepath.Join(tmp, "probes")); err != nil {
		return nil, err
	}
	// Useful-to-attempted ratio of signature checks: 1 means every item was
	// verified once per node and no more.
	if verify := m["meta.verify_us"] * 1e3 * float64(out.committed) * float64(out.n); verify > 0 {
		m["meta.verifies_per_item_node"] = shares["identity"] * float64(out.windowCPU) / verify
	}
	if err := rec.write(filepath.Join(results, "trace_"+name+".json")); err != nil {
		return nil, err
	}
	return out, nil
}

// report prints every metric the outcome has, by name with its unit.
func report(name string, seed int64, o *outcome, specs []metricSpec) {
	fmt.Printf("== %s seed=%d correct=%v attempted=%d failed=%d\n", name, seed, o.correct, o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Printf("   PROBLEM %s\n", p)
	}
	for _, m := range specs {
		if v, ok := o.metrics[m.Name]; ok {
			fmt.Printf("   %-38s %14.6g %-6s (%s is better)\n", m.Name, v, m.Unit, m.Better)
		}
	}
	for _, k := range sortedKeys(o.info) {
		fmt.Printf("   # %s: %s\n", k, o.info[k])
	}
}

// runOne is the driver's contract: one workload, one run, and as the last
// line of standard output one JSON object holding the gated end-to-end
// metrics (untraced) or the per-layer metrics (traced).
func runOne(name string, seed int64, seconds int, traced bool, results string) error {
	out, err := runWorkload(name, seed, seconds, traced, results)
	if err != nil {
		return err
	}
	specs := gated()
	if traced {
		specs = perLayerList()
	}
	report(name, seed, out, append(endToEndOn(name), layerMetrics...))
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{out.correct, out.attempted, out.failed, readings(out, specs)})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.correct {
		return fmt.Errorf("%s: correctness checks failed: %v", name, out.problems)
	}
	return nil
}

// runLedger runs every workload the way the driver does, untraced for the
// end-to-end metrics and (with -trace 1) traced for the per-layer list, sets
// times over at the same seed, and writes the ledger file.
func runLedger(seed int64, seconds, sets int, traced bool, outPath, results string) error {
	l := &ledger{Issue: issue, Seed: seed, Seconds: seconds,
		Note: "metrics: the end-to-end metrics of the untraced run; traced: what a -trace 1 run prints, per-layer metrics and its own reading of the ungated end-to-end ones; sets repeat the same seed"}
	failed := false
	for s := 0; s < sets; s++ {
		var set ledgerSet
		for _, wl := range workloads {
			plain, err := runWorkload(wl.Name, seed, seconds, false, results)
			if err != nil {
				return err
			}
			report(wl.Name, seed, plain, endToEndOn(wl.Name))
			run := ledgerRun{Workload: wl.Name, Correct: plain.correct, Attempted: plain.attempted, Failed: plain.failed,
				Problems: plain.problems, Info: plain.info, Metrics: readings(plain, endToEndOn(wl.Name))}
			if traced {
				deep, err := runWorkload(wl.Name, seed, seconds, true, results)
				if err != nil {
					return err
				}
				report(wl.Name+" (traced)", seed, deep, layerMetrics)
				run.Traced = readings(deep, perLayerList())
				overhead := (deep.metrics["cpu_ms_per_item"] - plain.metrics["cpu_ms_per_item"]) / plain.metrics["cpu_ms_per_item"]
				run.Info["trace_overhead_share"] = fmt.Sprintf("%.4f", overhead)
				fmt.Printf("   trace_overhead_share %.4f (traced %.4g vs untraced %.4g ms CPU per item)\n",
					overhead, deep.metrics["cpu_ms_per_item"], plain.metrics["cpu_ms_per_item"])
				run.Correct = run.Correct && deep.correct
				run.Problems = append(run.Problems, deep.problems...)
			}
			failed = failed || !run.Correct
			set.Runs = append(set.Runs, run)
		}
		l.Sets = append(l.Sets, set)
	}
	if err := writeLedger(outPath, l); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sets)\n", outPath, sets)
	if failed {
		return fmt.Errorf("correctness checks failed; see PROBLEM lines")
	}
	return nil
}

// runSmoke runs every workload short and checks only that it is correct and
// that every gated metric has a value.
func runSmoke(seed int64, seconds int) error {
	began := time.Now()
	for _, wl := range workloads {
		out, err := runWorkload(wl.Name, seed, seconds, false, "")
		if err != nil {
			return err
		}
		report(wl.Name, seed, out, endToEndOn(wl.Name))
		if !out.correct {
			return fmt.Errorf("%s: correctness checks failed: %v", wl.Name, out.problems)
		}
		for _, m := range gated() {
			if out.metrics[m.Name] <= 0 {
				return fmt.Errorf("%s: gated metric %s reads %v", wl.Name, m.Name, out.metrics[m.Name])
			}
		}
	}
	fmt.Printf("smoke ok in %.1f s\n", time.Since(began).Seconds())
	return nil
}

// runVerify pins determinism: a sim-* workload run twice on the same seed
// must repeat its event digest, event count and every virtual metric.
func runVerify(seed int64, seconds int) error {
	for _, wl := range workloads {
		if _, ok := simSpecs[wl.Name]; !ok {
			continue
		}
		a, err := runWorkload(wl.Name, seed, seconds, false, "")
		if err != nil {
			return err
		}
		b, err := runWorkload(wl.Name, seed, seconds, false, "")
		if err != nil {
			return err
		}
		for _, key := range []string{"event_digest", "event_count"} {
			if a.info[key] != b.info[key] {
				return fmt.Errorf("%s: %s differs between identical runs: %s vs %s", wl.Name, key, a.info[key], b.info[key])
			}
		}
		for _, m := range endToEnd {
			if m.Virtual && a.metrics[m.Name] != b.metrics[m.Name] {
				return fmt.Errorf("%s: virtual metric %s differs between identical runs: %v vs %v",
					wl.Name, m.Name, a.metrics[m.Name], b.metrics[m.Name])
			}
		}
		if !a.correct || !b.correct {
			return fmt.Errorf("%s: correctness checks failed: %v %v", wl.Name, a.problems, b.problems)
		}
		fmt.Printf("%s: digest %s, %s events and every virtual metric repeat\n", wl.Name, a.info["event_digest"], a.info["event_count"])
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two ledger files: base.json change.json")
	}
	a, err := readLedger(args[0])
	if err != nil {
		return err
	}
	b, err := readLedger(args[1])
	if err != nil {
		return err
	}
	if worse := compareLedgers(os.Stdout, a, b); worse > 0 {
		return fmt.Errorf("%d metric/workload pairs are worse than the bound allows", worse)
	}
	return nil
}
