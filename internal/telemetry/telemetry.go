// Package telemetry is the runtime metrics plane for the live-node stack.
// The paper's whole evaluation (§VI) is built on measured quantities —
// per-node transmission overhead, delivery time, storage fairness, energy
// per block — and the deterministic simulator collects them offline; this
// package makes the same families of numbers observable on a *live*
// deployment, with hot-path costs small enough to leave enabled always.
//
// It is dependency-free (stdlib only) and offers four primitives:
//
//   - Counter: monotonic atomic uint64 (frames sent, blocks adopted, ...).
//   - Gauge: last-written atomic int64 (current stake S_i, height, ...).
//   - Histogram: bounded log-linear histogram over non-negative int64
//     values (latencies in nanoseconds, sizes in bytes) with p50/p95/p99
//     estimation. Observe is lock-free; its 15 KB bucket array arrives
//     with the first observation, so a histogram nothing observes costs
//     a few words.
//   - Ring: bounded structured event buffer for postmortems (fork
//     adoptions, store errors, partition heals), grown as events arrive.
//
// A Registry names and owns instances of each; Snapshot() renders one
// consistent read-only view for tests, the chaos harness and the HTTP
// endpoint (cmd/edgenode -metrics-addr).
//
// Hot-path contract: Counter.Inc/Add, Gauge.Set and Histogram.Observe
// perform no allocation (Observe none after its first call) and take on
// the order of single nanoseconds (single uncontended atomic op); see
// bench_test.go and the CI smoke bench. Registry lookups are mutex-guarded and meant to happen once at
// setup time — callers keep the returned pointers.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// --- counter ---------------------------------------------------------------

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n is ignored: counters are monotonic).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(uint64(n))
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- gauge -----------------------------------------------------------------

// Gauge is a last-value-wins metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- histogram -------------------------------------------------------------

// Histogram bucket layout: log-linear ("HDR-lite"). Values below histSub
// get exact unit buckets; above that, each power-of-two octave is split
// into histSub linear sub-buckets, bounding the relative quantization
// error of a reconstructed value by 1/(2*histSub) ≈ 3%.
const (
	histSubBits = 5 // 32 sub-buckets per octave
	histSub     = 1 << histSubBits
	// histBuckets covers the full non-negative int64 range:
	// exact buckets [0,histSub) plus (63-histSubBits) octaves.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// Histogram records non-negative int64 observations (latencies in
// nanoseconds, sizes in bytes) into a fixed array of atomic buckets.
// Negative observations clamp to 0. Observe is lock-free; the first call
// allocates the bucket array and publishes it by compare-and-swap, and no
// call after it allocates. Quantiles are estimated from bucket midpoints
// at snapshot time.
type Histogram struct {
	buckets atomic.Pointer[histCounts] // nil until the first Observe
	sum     atomic.Int64
	min     atomic.Int64 // stored as value+1; 0 means no observations yet
	max     atomic.Int64
}

type histCounts [histBuckets]atomic.Uint64

// counts returns the bucket array, publishing one if no call has yet.
// Racing first calls all land on the array whose swap won.
func (h *Histogram) counts() *histCounts {
	if b := h.buckets.Load(); b != nil {
		return b
	}
	if b := new(histCounts); h.buckets.CompareAndSwap(nil, b) {
		return b
	}
	return h.buckets.Load()
}

func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	sub := v >> uint(exp) // in [histSub, 2*histSub)
	return exp*histSub + int(sub)
}

// bucketMid returns the midpoint of bucket idx's value range, used as the
// representative value for quantile and count-weighted reconstruction.
func bucketMid(idx int) float64 {
	if idx < histSub {
		return float64(idx)
	}
	exp := idx/histSub - 1
	sub := uint64(histSub + idx%histSub)
	lo := sub << uint(exp)
	width := uint64(1) << uint(exp)
	return float64(lo) + float64(width-1)/2
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts()[bucketIndex(uint64(v))].Add(1)
	h.sum.Add(v)
	// Min/max via CAS; after warmup these loops exit on the first load.
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if cur >= v+1 {
			break
		}
		if h.max.CompareAndSwap(cur, v+1) {
			break
		}
	}
}

// ObserveSince records the elapsed time since start in nanoseconds.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(int64(time.Since(start)))
}

// HistSnapshot is a consistent point-in-time summary of a Histogram.
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. Count and quantiles derive from one
// pass over the bucket array; under concurrent Observe calls the view is
// the set of observations whose bucket increment landed before the pass
// reached it — each individual statistic is internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	b := h.buckets.Load()
	if b == nil {
		return HistSnapshot{}
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range b {
		counts[i] = b[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Count: total,
		Min:   h.min.Load() - 1,
		Max:   h.max.Load() - 1,
		Mean:  float64(h.sum.Load()) / float64(total),
		P50:   quantile(&counts, total, 0.50),
		P95:   quantile(&counts, total, 0.95),
		P99:   quantile(&counts, total, 0.99),
	}
	return s
}

// quantile returns the value at the p-quantile (nearest-rank over bucket
// midpoints).
func quantile(counts *[histBuckets]uint64, total uint64, p float64) float64 {
	rank := uint64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// --- event ring ------------------------------------------------------------

// Event is one structured postmortem record.
type Event struct {
	// Seq is the dense per-ring sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// At is the event time (caller-supplied so virtual-clock runs stay
	// deterministic; RecordAt) .
	At time.Time `json:"at"`
	// Name labels the event kind ("fork_adopted", "store_error", ...).
	Name string `json:"name"`
	// Detail carries free-form context.
	Detail string `json:"detail,omitempty"`
}

// Ring is a bounded event buffer: the most recent size events are kept,
// older ones are overwritten. The buffer grows by append as events arrive,
// so a ring that records nothing holds none of its capacity. It is not a
// hot-path structure — a mutex guards it.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	size int    // capacity in events
	next uint64 // total events ever recorded
}

// DefaultRingSize is the registry's default event-ring capacity.
const DefaultRingSize = 256

// NewRing creates a ring holding up to capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{size: capacity}
}

// Record appends an event stamped with the wall clock.
func (r *Ring) Record(name, detail string) { r.RecordAt(time.Now(), name, detail) }

// RecordAt appends an event with an explicit timestamp (virtual clocks).
func (r *Ring) RecordAt(at time.Time, name, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	e := Event{Seq: r.next, At: at, Name: name, Detail: detail}
	if len(r.buf) < r.size {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[int((r.next-1)%uint64(r.size))] = e
}

// Events returns the retained events oldest-first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]Event(nil), r.buf...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// --- registry --------------------------------------------------------------

// Registry names and owns metrics. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use; Counter/Gauge/
// Histogram get-or-create under a mutex and are meant to be called once
// per metric at setup time.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	ring     *Ring
}

// NewRegistry creates an empty registry with a DefaultRingSize event ring.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ring:     NewRing(DefaultRingSize),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil *Counter, whose methods are no-ops — consumers
// can wire metrics unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil-safe).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use
// (nil-safe).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Events returns the registry's event ring (nil for a nil registry).
func (r *Registry) Events() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Snapshot is one read-only view of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
	Events     []Event                 `json:"events,omitempty"`
}

// Counter returns the named counter's value (0 when absent) — assertion
// ergonomics for tests.
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns the named histogram's summary (zero when absent).
func (s Snapshot) Histogram(name string) HistSnapshot { return s.Histograms[name] }

// Snapshot captures every metric. Counters are monotone between
// snapshots; values read while writers run reflect some interleaving of
// completed increments (each metric is read atomically, the set of
// metrics is read under the registry lock so no metric can appear or
// vanish mid-snapshot).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	snap := Snapshot{
		Counters:   make(map[string]uint64, len(counters)),
		Gauges:     make(map[string]int64, len(gauges)),
		Histograms: make(map[string]HistSnapshot, len(hists)),
		Events:     r.ring.Events(),
	}
	for n, c := range counters {
		snap.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		snap.Gauges[n] = g.Value()
	}
	for n, h := range hists {
		snap.Histograms[n] = h.Snapshot()
	}
	return snap
}
