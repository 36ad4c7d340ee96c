package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
)

func TestPercentileAndTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		tail float64
	}{{9, 90}, {199, 90}, {200, 95}, {1000, 99}} {
		sample := make([]float64, tc.n)
		for i := range sample {
			sample[i] = float64(tc.n - i) // descending: summarize must sort
		}
		got := summarize(sample)
		if got.TailPct != tc.tail || got.N != tc.n {
			t.Errorf("n=%d: tail p%.0f of %d samples, want p%.0f of %d", tc.n, got.TailPct, got.N, tc.tail, tc.n)
		}
		// The sample is 1..n, so the p-th percentile is 1 + p/100·(n-1).
		if want := 1 + 0.5*float64(tc.n-1); math.Abs(got.P50-want) > 1e-9 {
			t.Errorf("n=%d: median %v, want %v", tc.n, got.P50, want)
		}
		if want := 1 + tc.tail/100*float64(tc.n-1); math.Abs(got.Tail-want) > 1e-9 {
			t.Errorf("n=%d: tail %v, want %v", tc.n, got.Tail, want)
		}
		// At least ten samples lie beyond the tail wherever the rule claims it.
		if beyond := float64(tc.n) * (100 - tc.tail) / 100; tc.n >= 200 && beyond < 10 {
			t.Errorf("n=%d: only %.1f samples beyond p%.0f", tc.n, beyond, tc.tail)
		}
	}
	if got := summarize(nil); got.P50 != 0 || got.Tail != 0 {
		t.Errorf("empty sample: %+v", got)
	}
}

// Values from Python: statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, 10, 23, 38},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// chainOf builds a chain on prev, one block per entry, each holding the
// listed items placed on nodes {0, 1}.
func chainOf(prev *block.Block, miner identity.Address, blocks ...[]meta.DataID) []*block.Block {
	var out []*block.Block
	for _, ids := range blocks {
		bld := block.NewBuilder(prev, miner, prev.Timestamp+time.Second, 1, 1)
		for _, id := range ids {
			bld.AddItem(&meta.Item{ID: id, StoringNodes: []int{0, 1}})
		}
		prev = bld.Seal()
		out = append(out, prev)
	}
	return out
}

func TestCanonicalResolutionAcrossReorg(t *testing.T) {
	const ms = int64(time.Millisecond)
	genesis := block.Genesis(42)
	var minerA, minerB identity.Address
	minerA[0], minerB[0] = 1, 2
	x, y := meta.HashData([]byte("x")), meta.HashData([]byte("y"))

	tr := newTracker(2)
	tr.published(x, 0)
	tr.published(y, 0)
	// Node 0 packs x first; node 1 packs it on a competing block. Node 1's
	// fork wins: it grows a second block carrying y, and node 0 reorgs.
	loser := chainOf(genesis, minerA, []meta.DataID{x})
	winner := chainOf(genesis, minerB, []meta.DataID{x}, []meta.DataID{y})
	tr.observeChain(0, append([]*block.Block{genesis}, loser...), 100*ms)
	tr.observeChain(1, append([]*block.Block{genesis}, winner[:1]...), 150*ms)
	tr.observeChain(1, append([]*block.Block{genesis}, winner...), 400*ms)
	tr.observeChain(0, append([]*block.Block{genesis}, winner...), 700*ms)
	have := map[meta.DataID]bool{}
	holds := func(_ int, id meta.DataID) (up, has bool) { return true, have[id] }
	tr.pollReplicas(holds, 800*ms) // nothing held yet
	have[x], have[y] = true, true
	tr.pollReplicas(holds, 900*ms)

	res := tr.resolve(append([]*block.Block{genesis}, winner...))
	if res.committed != 2 || res.notCanonical != 0 || res.notReplica != 0 {
		t.Fatalf("committed=%d notCanonical=%d notReplica=%d, want 2 0 0", res.committed, res.notCanonical, res.notReplica)
	}
	// x: its canonical block was first seen at 150 ms (not the loser's 100)
	// and reached node 0 only with the reorg at 700 ms.
	if res.chainFirst[0] != 150 || res.chainAll[0] != 700 {
		t.Errorf("x: first=%v all=%v, want 150 700", res.chainFirst[0], res.chainAll[0])
	}
	if res.chainFirst[1] != 400 || res.chainAll[1] != 700 {
		t.Errorf("y: first=%v all=%v, want 400 700", res.chainFirst[1], res.chainAll[1])
	}
	if len(res.blockProp) != 2 || res.blockProp[0] != 550 || res.blockProp[1] != 300 {
		t.Errorf("block propagation %v, want [550 300]", res.blockProp)
	}
	if res.replica[0] != 900 || res.replica[1] != 900 {
		t.Errorf("replica %v, want 900 for both", res.replica)
	}

	// Against the loser's chain nothing is committed: y was never on it, and
	// node 1 never held the block that carries x.
	res = tr.resolve(append([]*block.Block{genesis}, loser...))
	if res.committed != 0 || res.notCanonical != 2 {
		t.Errorf("loser chain: committed=%d notCanonical=%d, want 0 2", res.committed, res.notCanonical)
	}
}

// A canned excerpt of `go tool pprof -traces` output.
const cannedTraces = `File: edgebench
Type: cpu
Time: 2026-09-27 20:11:11 UTC
Duration: 10.21s, Total samples = 100ms (0.98%)
-----------+-------------------------------------------------------
      40ms   crypto/internal/fips140/edwards25519/field.feMul
             crypto/internal/fips140/ed25519.verify
             crypto/ed25519.Verify
             repro/internal/identity.Verify
             repro/internal/meta.(*Item).Verify
             repro/internal/block.(*Block).VerifySelf
             repro/internal/chain.(*Chain).Add
             repro/internal/engine.(*Engine).ReceiveBlock
             repro/internal/livenode.(*Node).handleFrame
             repro/internal/p2p/memnet.(*Network).DeliverNext
             repro/internal/chaos.(*Cluster).step
             main.(*simRun).step
             main.main
             runtime.main
-----------+-------------------------------------------------------
      20ms   runtime.mapaccess2
             repro/internal/p2p/memnet.(*Endpoint).sortedPeersLocked
             repro/internal/p2p/memnet.(*Endpoint).Broadcast
             repro/internal/livenode.(*Node).bcast
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      10ms   sync.(*Mutex).Lock
             main.(*tracker).pollChain
             main.(*simRun).step
             main.main
-----------+-------------------------------------------------------
      20ms   runtime.memmove
             repro/internal/netsim.NewClique
             repro/internal/livenode.New
`

func TestFoldTraces(t *testing.T) {
	shares, err := foldTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"identity": 0.4, "memnet": 0.2, "runtime": 0.1, "bench": 0.1, "other": 0.2}
	total := 0.0
	for layer, share := range shares {
		total += share
		if math.Abs(share-want[layer]) > 1e-9 {
			t.Errorf("%s: share %v, want %v", layer, share, want[layer])
		}
	}
	if len(shares) != len(want) || math.Abs(total-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want %v", shares, total, want)
	}
	if _, err := foldTraces("File: x\nType: cpu\n"); err == nil {
		t.Error("a listing without samples must be an error")
	}
}

func TestFailedShareAccounting(t *testing.T) {
	o := newOutcome(4, time.Second)
	o.attempted, o.failed = 200, 3
	o.republished, o.fetchRetries = 1, 4
	o.settle()
	if got := o.metrics["failed_share"]; got != 0.015 {
		t.Errorf("failed_share %v, want 0.015", got)
	}
	// An operation the client had to issue again succeeded, so it is not a
	// failure, but it is counted.
	if m := o.metrics; m["retried_share"] != 0.025 || m["livenode.items_republished"] != 1 || m["livenode.fetch_retries"] != 4 {
		t.Errorf("retried_share %v republished %v fetch retries %v, want 0.025 1 4",
			m["retried_share"], m["livenode.items_republished"], m["livenode.fetch_retries"])
	}
	// A failed correctness check fails the whole workload.
	o.fail("invariants: %s", "two chains")
	o.settle()
	if o.failed != 200 || o.metrics["failed_share"] != 1 || o.correct {
		t.Errorf("after a failed check: failed=%d share=%v correct=%v", o.failed, o.metrics["failed_share"], o.correct)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := metricSpec{Name: "cpu_ms_per_item", Unit: "ms", Better: "lower", Bound: 0.10}
	base := []float64{10, 10.2, 9.9, 10.1, 10, 10.3, 9.8, 10, 10.1, 10}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"clear gain", shift(0.8), "better"},
		{"clear loss", shift(1.2), "worse"},
		{"small loss", shift(1.03), "within bound"},
		{"same", base, "within bound"},
	} {
		if got := compareMetric(spec, spec.Bound, base, tc.change).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	// Two pairs are not enough to claim a gain, nor a loss on the machine's
	// clock; a loss on the virtual clock repeats exactly and needs one.
	if got := compareMetric(spec, spec.Bound, base[:2], shift(0.8)[:2]).Verdict; got != "within bound" {
		t.Errorf("gain on two pairs: verdict %q, want within bound", got)
	}
	if got := compareMetric(spec, spec.Bound, base[:2], shift(1.2)[:2]).Verdict; got != "unresolved" {
		t.Errorf("machine-time loss on two pairs: verdict %q, want unresolved", got)
	}
	virtual := metricSpec{Name: "chain_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true}
	if got := compareMetric(virtual, virtual.Bound, base[:1], shift(1.2)[:1]).Verdict; got != "worse" {
		t.Errorf("virtual loss on one pair: verdict %q, want worse", got)
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 10, 9, 11, 10}
	if got := compareMetric(spec, spec.Bound, noisy, shift(1.02)).Verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
	abs := metricSpec{Name: "gini_storage", Unit: "ratio", Better: "lower", Bound: 0.03, Abs: true, Virtual: true}
	if got := compareMetric(abs, abs.Bound, []float64{0.01, 0.01}, []float64{0.05, 0.05}).Verdict; got != "worse" {
		t.Errorf("absolute bound: verdict %q, want worse", got)
	}
}

// A metric is judged only on the workloads it is an end-to-end metric on,
// with that workload's bound.
func TestEndToEndPerWorkload(t *testing.T) {
	has := func(workload, metric string) bool {
		for _, m := range endToEndOn(workload) {
			if m.Name == metric {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		workload, metric string
		want             bool
	}{
		{"tcp-steady", "chain_p50_ms", false}, {"tcp-steady", "wall_s", false}, {"tcp-steady", "fetch_p50_ms", true},
		{"sim-scale", "chain_p50_ms", true}, {"sim-scale", "chain_tail_ms", false}, {"sim-flash", "restore_p50_ms", false},
		{"sim-churn", "restore_p50_ms", true}, {"sim-churn", "gini_storage", false}, {"sim-churn", "retried_share", true},
	} {
		if got := has(tc.workload, tc.metric); got != tc.want {
			t.Errorf("%s on %s: end-to-end %v, want %v", tc.metric, tc.workload, got, tc.want)
		}
	}
	for _, wl := range workloads {
		for _, m := range gated() {
			if !m.on(wl.Name) {
				t.Errorf("gated metric %s is not emitted on %s", m.Name, wl.Name)
			}
		}
	}
	m := metricSpec{Bound: 0.10, BoundOn: map[string]float64{"tcp-steady": 0.40}}
	if m.bound("tcp-steady") != 0.40 || m.bound("sim-flash") != 0.10 {
		t.Errorf("bounds %v %v, want 0.40 0.10", m.bound("tcp-steady"), m.bound("sim-flash"))
	}
}

// Two sets of runs of one commit are not a regression: the committed
// ledger's first set against its second must yield no "worse", and on sim-*
// the same digest and the same virtual metrics.
func TestCommittedLedgerSetsAgree(t *testing.T) {
	l, err := readLedger("results/BENCH_12.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Sets) < 2 {
		t.Fatalf("%d sets in the committed ledger, want at least 2", len(l.Sets))
	}
	first, second := *l, *l
	first.Sets, second.Sets = l.Sets[:1], l.Sets[1:2]
	for _, pair := range [][2]*ledger{{&first, &second}, {&second, &first}} {
		var listing strings.Builder
		if worse := compareLedgers(&listing, pair[0], pair[1]); worse != 0 {
			t.Errorf("%d metric/workload pairs of one commit's two sets read as worse:\n%s", worse, listing.String())
		}
	}
	for i, a := range first.Sets[0].Runs {
		b := second.Sets[0].Runs[i]
		if !a.Correct || !b.Correct || a.Failed != 0 || b.Failed != 0 {
			t.Errorf("%s: correct %v/%v failed %d/%d", a.Workload, a.Correct, b.Correct, a.Failed, b.Failed)
		}
		if _, sim := simSpecs[a.Workload]; !sim {
			continue
		}
		if a.Info["event_digest"] != b.Info["event_digest"] || a.Info["event_digest"] == "" {
			t.Errorf("%s: event digests %q and %q", a.Workload, a.Info["event_digest"], b.Info["event_digest"])
		}
		for _, m := range endToEndOn(a.Workload) {
			if m.Virtual && a.Metrics[m.Name] != b.Metrics[m.Name] {
				t.Errorf("%s %s: %v and %v on the same seed", a.Workload, m.Name, a.Metrics[m.Name], b.Metrics[m.Name])
			}
		}
	}
}

// BENCHMARK.json must say what spec.go says, within the driver's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) || used[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		used[n] = true
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q / %q does not match spec.go or the limits", i, w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			name(m.Name)
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s[%d]: %+v does not match spec.go's %+v", kind, i, m, w)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != w.Bound || *m.Bound > 0.25 || w.Abs):
				t.Errorf("%s[%d] %s: bound %v does not match spec.go's relative %v (at most 0.25)", kind, i, m.Name, m.Bound, w.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s[%d] %s: a per-layer metric has no bound", kind, i, m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, gated(), true)
	check("per_layer", file.PerLayer, perLayerList(), false)
	if n := len(file.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, m := range file.EndToEnd {
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 || len(file.Paths) != 1 || file.Paths[0] != "bench" {
		t.Errorf("run_seconds=%d paths=%v", file.RunSeconds, file.Paths)
	}
}

// What a run prints round-trips through JSON with every listed name.
func TestReadingsRoundTrip(t *testing.T) {
	o := newOutcome(4, time.Second)
	o.metrics["setup_s"] = 0.25
	for _, specs := range [][]metricSpec{gated(), perLayerList()} {
		data, err := json.Marshal(readings(o, specs))
		if err != nil {
			t.Fatal(err)
		}
		var back map[string]reading
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != len(specs) {
			t.Errorf("%d readings for %d metrics", len(back), len(specs))
		}
		for _, m := range specs {
			if r, ok := back[m.Name]; !ok || r.Unit != m.Unit {
				t.Errorf("%s: reading %+v ok=%v", m.Name, r, ok)
			}
		}
	}
}
