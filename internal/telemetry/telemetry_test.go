package telemetry

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	snap := r.Snapshot()
	if snap.Counter("c") != 5 || snap.Gauge("g") != 5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	if snap.Counter("absent") != 0 || snap.Gauge("absent") != 0 {
		t.Fatal("absent metrics should read as zero")
	}
}

// TestNilSafety: a nil registry hands out nil metrics whose methods are
// no-ops, so consumers can wire telemetry unconditionally.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	r.Events().Record("x", "")
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if got := r.Histogram("x").Snapshot(); got.Count != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

// TestConcurrentIncrementRace hammers every primitive from many
// goroutines while snapshots run; correctness is exact counter totals at
// the end, and the race detector validates the memory model.
func TestConcurrentIncrementRace(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 10000
	c := r.Counter("hits")
	g := r.Gauge("level")
	h := r.Histogram("lat")
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(w*perWorker + i))
			}
		}(w)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() { // concurrent snapshotter
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	workersWG.Wait()
	close(stop)
	<-snapDone
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// exactQuantile reads the p-quantile from sorted samples by linear
// interpolation between the closest ranks (the R-7 estimator).
func exactQuantile(sorted []float64, p float64) float64 {
	pos := p * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestHistogramQuantileAccuracy compares histogram quantile estimates
// against the exact quantiles of the same samples. The
// log-linear bucket layout bounds relative reconstruction error by
// ~1/histSub, so estimates must land within a few percent.
func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	samples := make([]float64, 0, 5000)
	// Deterministic long-tailed spread over four orders of magnitude.
	v := int64(17)
	for i := 0; i < 5000; i++ {
		x := v%100000 + 1
		h.Observe(x)
		samples = append(samples, float64(x))
		v = v*1103515245 + 12345
		if v < 0 {
			v = -v
		}
	}
	slices.Sort(samples)
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	exact := struct{ P50, P95, Mean, Min, Max float64 }{
		exactQuantile(samples, 0.50), exactQuantile(samples, 0.95),
		sum / float64(len(samples)), samples[0], samples[len(samples)-1],
	}
	got := h.Snapshot()
	if got.Count != 5000 {
		t.Fatalf("count = %d, want 5000", got.Count)
	}
	relErr := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / want
	}
	// Interpolated percentile vs nearest-rank-midpoint can
	// legitimately differ by one bucket width plus one rank: allow 7%.
	if e := relErr(got.P50, exact.P50); e > 0.07 {
		t.Errorf("P50 = %.1f, exact %.1f (err %.3f)", got.P50, exact.P50, e)
	}
	if e := relErr(got.P95, exact.P95); e > 0.07 {
		t.Errorf("P95 = %.1f, exact %.1f (err %.3f)", got.P95, exact.P95, e)
	}
	if e := relErr(got.Mean, exact.Mean); e > 0.01 {
		t.Errorf("Mean = %.1f, exact %.1f (err %.3f)", got.Mean, exact.Mean, e)
	}
	if got.Min != int64(exact.Min) || got.Max != int64(exact.Max) {
		t.Errorf("min/max = %d/%d, exact %.0f/%.0f", got.Min, got.Max, exact.Min, exact.Max)
	}
}

func TestHistogramBucketReconstruction(t *testing.T) {
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345} {
		idx := bucketIndex(v)
		mid := bucketMid(idx)
		tol := float64(v)/histSub + 1
		if math.Abs(mid-float64(v)) > tol {
			t.Errorf("v=%d: bucket %d mid %.1f off by more than %.1f", v, idx, mid, tol)
		}
	}
	// Index must be monotone non-decreasing in v and in range.
	last := -1
	for v := uint64(0); v < 1<<14; v++ {
		idx := bucketIndex(v)
		if idx < last || idx >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d (last %d, cap %d)", v, idx, last, histBuckets)
		}
		last = idx
	}
	if idx := bucketIndex(math.MaxInt64); idx >= histBuckets {
		t.Fatalf("MaxInt64 bucket %d out of range", idx)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var h Histogram
	if got := h.Snapshot(); got.Count != 0 {
		t.Fatalf("empty histogram count = %d", got.Count)
	}
	h.Observe(-5) // clamps to 0
	h.Observe(0)
	got := h.Snapshot()
	if got.Count != 2 || got.Min != 0 || got.Max != 0 || got.P50 != 0 {
		t.Fatalf("zero-value observations: %+v", got)
	}
}

// TestSnapshotConsistency: counter values in successive snapshots are
// monotone non-decreasing and never exceed the final total.
func TestSnapshotConsistency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	const total = 50000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			c.Inc()
		}
	}()
	var last uint64
	for i := 0; i < 1000; i++ {
		snap := r.Snapshot()
		v := snap.Counter("n")
		if v < last {
			t.Fatalf("snapshot went backwards: %d after %d", v, last)
		}
		if v > total {
			t.Fatalf("snapshot overshot: %d > %d", v, total)
		}
		last = v
	}
	<-done
	if got := r.Snapshot().Counter("n"); got != total {
		t.Fatalf("final snapshot = %d, want %d", got, total)
	}
}

func TestRingOverwrite(t *testing.T) {
	ring := NewRing(4)
	at := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		ring.RecordAt(at.Add(time.Duration(i)*time.Second), "ev", "")
	}
	events := ring.Events()
	if len(events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(events))
	}
	for i, e := range events {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (oldest-first, most recent kept)", i, e.Seq, want)
		}
	}
}

// TestRingKeepsNewestAcrossGrowth: a ring of 100 grows by append as events
// arrive and then overwrites in place; after every event it holds the newest
// min(recorded, 100), oldest first, and never more slots than its size.
func TestRingKeepsNewestAcrossGrowth(t *testing.T) {
	const size = 100
	ring := NewRing(size)
	if cap(ring.buf) != 0 {
		t.Fatalf("a new ring holds %d slots before any event", cap(ring.buf))
	}
	at := time.Unix(1700000000, 0)
	for i := 1; i <= 3*size+17; i++ {
		ring.RecordAt(at.Add(time.Duration(i)*time.Second), "ev", "")
		events := ring.Events()
		if want := min(i, size); len(events) != want {
			t.Fatalf("after %d events the ring holds %d, want %d", i, len(events), want)
		}
		for k, e := range events {
			if want := uint64(i - len(events) + 1 + k); e.Seq != want || !e.At.Equal(at.Add(time.Duration(want)*time.Second)) {
				t.Fatalf("after %d events, event %d is seq %d at %v, want seq %d", i, k, e.Seq, e.At, want)
			}
		}
		if len(ring.buf) > size {
			t.Fatalf("after %d events the buffer holds %d slots, want <= %d", i, len(ring.buf), size)
		}
	}
}

// TestHistogramUnobservedIsZero: a histogram nothing observed holds no bucket
// array and snapshots as the zero snapshot, standalone or from a registry.
func TestHistogramUnobservedIsZero(t *testing.T) {
	var h Histogram
	if got := h.Snapshot(); got != (HistSnapshot{}) {
		t.Fatalf("unobserved snapshot = %+v, want the zero snapshot", got)
	}
	if h.buckets.Load() != nil {
		t.Fatal("an unobserved histogram allocated its buckets")
	}
	r := NewRegistry()
	r.Histogram("idle")
	if got := r.Snapshot().Histogram("idle"); got != (HistSnapshot{}) {
		t.Fatalf("registry snapshot of an idle histogram = %+v, want zero", got)
	}
	h.Observe(0)
	if got := h.Snapshot(); got.Count != 1 || got.Min != 0 || got.Max != 0 {
		t.Fatalf("after Observe(0): %+v, want one observation of 0", got)
	}
}

// TestHistogramFirstObserveRace: eight goroutines released together each
// make a fresh histogram's first observation at once; whichever swap
// publishes the bucket array, every observation is counted. Run under -race.
func TestHistogramFirstObserveRace(t *testing.T) {
	const workers, trials = 8, 200
	for trial := 0; trial < trials; trial++ {
		var h Histogram
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(v int64) {
				defer wg.Done()
				<-start
				h.Observe(v)
			}(int64(w * 1000))
		}
		close(start)
		wg.Wait()
		if got := h.Snapshot(); got.Count != workers || got.Min != 0 || got.Max != (workers-1)*1000 {
			t.Fatalf("trial %d: %+v, want %d observations over [0, %d]", trial, got, workers, (workers-1)*1000)
		}
	}
}

// TestHotPathNoAllocs pins the zero-allocation contract the CI bench
// smoke step guards: counter/gauge/histogram writes on the frame path
// must not allocate.
func TestHotPathNoAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter ops allocate %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(42) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op", n)
	}
	// Only the first observation allocates (the bucket array): the
	// warm-up call AllocsPerRun makes is that one.
	fresh := r.Histogram("fresh")
	v := int64(0)
	if n := testing.AllocsPerRun(1000, func() { fresh.Observe(v); v = v*3 + 7 }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op after its first call", n)
	}
}
