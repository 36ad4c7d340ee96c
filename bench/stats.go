package main

import (
	"crypto/ed25519"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// percentile returns the p-th percentile (0-100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile is the highest percentile a sample of n supports with at
// least ten samples beyond it: p99 from 1000 samples, p95 from 200, else
// p90.
func tailPercentile(n int) float64 {
	switch {
	case n >= 1000:
		return 99
	case n >= 200:
		return 95
	default:
		return 90
	}
}

// timing is a latency sample summarised the way every timing in the
// ledger is reported: median, the highest supported tail, and the count.
type timing struct {
	P50, Tail float64
	TailPct   float64
	N         int
}

func summarize(samples []float64) timing {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	t := timing{N: len(s), TailPct: tailPercentile(len(s))}
	t.P50 = percentile(s, 50)
	t.Tail = percentile(s, t.TailPct)
	return t
}

func median(v []float64) float64 { return summarize(v).P50 }

// quartiles returns the first quartile, median and third quartile with the
// exclusive method of Python's statistics.quantiles(values, n=4), the rule
// the acceptance spread is defined by. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cpuTime is the process's CPU time so far (getrusage): user plus system,
// or user alone.
func cpuTime(userOnly bool) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	if userOnly {
		return time.Duration(ru.Utime.Nano())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedRef samples how fast this machine is while a measured window runs:
// every 200 ms it times a batch of 50 ed25519 signature verifications (3 ms,
// 1.5 % of the window). The sandbox's speed swings by 10-25 % within seconds
// and minutes (the same seed read 11.7 and 14.6 ms of CPU per item a few
// minutes apart), which a CPU time cannot tell from a slower program;
// dividing by the mean cost of a verification over the same window can.
// Signature checks are also what most of the program's CPU goes into, so the
// unit reads naturally: an item costs as much CPU as so many verifications.
type speedRef struct {
	pub     ed25519.PublicKey
	msg     []byte
	sig     []byte
	last    time.Time
	spent   time.Duration // CPU the sampling itself used, to be taken off the window's
	samples []float64     // nanoseconds per verification, one per batch
}

const (
	refEvery = 200 * time.Millisecond
	refBatch = 50
)

func newSpeedRef() *speedRef {
	pub, priv, err := ed25519.GenerateKey(zeroReader{})
	if err != nil {
		panic(err) // a reader that never fails
	}
	r := &speedRef{pub: pub, msg: make([]byte, 128)}
	r.sig = ed25519.Sign(priv, r.msg)
	return r
}

// tick takes a sample if one is due. Call it often from one goroutine. The
// batch is timed on the thread's CPU clock, so that being preempted by the
// eight nodes of the TCP workload does not read as a slow machine.
func (r *speedRef) tick() {
	now := time.Now()
	if now.Sub(r.last) < refEvery {
		return
	}
	r.last = now
	runtime.LockOSThread()
	t0 := threadCPU()
	for k := 0; k < refBatch; k++ {
		ed25519.Verify(r.pub, r.msg, r.sig)
	}
	d := threadCPU() - t0
	runtime.UnlockOSThread()
	r.spent += d
	r.samples = append(r.samples, float64(d)/refBatch)
}

// threadCPU reads the calling thread's CPU clock (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cost is the mean cost of one verification over the samples taken.
func (r *speedRef) cost() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.samples {
		sum += v
	}
	return time.Duration(sum / float64(len(r.samples)))
}

// zeroReader makes the reference key the same on every run.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}
