// Package chaos is the deterministic fault-injection test harness for the
// live edge-blockchain node. It drives N livenode instances over the
// in-memory fault-injecting transport (internal/p2p/memnet) and a shared
// virtual clock, so scripted and randomized schedules — partition/heal
// cycles, node crash + WAL restart, concurrent miners forcing forks,
// lossy/reordering links — run single-threaded, wall-clock-free, and
// exactly reproducibly: the same seed yields the same faultnet event log.
// After each schedule the harness checks the safety and convergence
// invariants of the paper's deployment (Section V): single-chain
// convergence, end-to-end PoS claim validity, common-prefix stability
// across heals, and chain-derived Q_i/storage accounting.
package chaos

import (
	"container/heap"
	"sync"
	"time"

	"repro/internal/livenode"
)

// VClock is a virtual clock implementing livenode.Clock. Time only moves
// when the harness advances it; timers fire inline on the advancing
// goroutine in (due time, creation order) sequence, which is what makes
// whole-cluster schedules deterministic.
//
// Timers live in a (due, seq) min-heap with lazy deletion: Stop marks a
// timer done and it is discarded when it surfaces at the top. Every
// operation is O(log timers), where the old linear scan-and-compact made
// each delivery O(timers) — at 256 nodes the heartbeat and mining timers
// alone put thousands of timers in flight.
type VClock struct {
	mu     sync.Mutex
	now    time.Time
	seq    uint64
	timers timerHeap
}

type vtimer struct {
	clock *VClock
	at    time.Time
	seq   uint64
	fn    func()
	done  bool // fired or stopped
}

// timerHeap orders pending timers by (due time, creation order); seq is
// unique so the order is total and firing is deterministic.
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*vtimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// NewVClock creates a virtual clock starting at the given instant
// (typically the cluster's shared epoch).
func NewVClock(start time.Time) *VClock {
	return &VClock{now: start}
}

// Now implements livenode.Clock.
func (c *VClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements livenode.Clock: fn runs when the clock is advanced
// to (or past) now+d, never synchronously inside this call.
func (c *VClock) AfterFunc(d time.Duration, fn func()) livenode.Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	t := &vtimer{clock: c, at: c.now.Add(d), seq: c.seq, fn: fn}
	heap.Push(&c.timers, t)
	return t
}

// Stop implements livenode.Timer.
func (t *vtimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// NextTimer returns the due time of the earliest pending timer.
func (c *VClock) NextTimer() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.earliestLocked()
	if t == nil {
		return time.Time{}, false
	}
	return t.at, true
}

// earliestLocked returns the earliest pending timer without removing it,
// discarding stopped timers that have surfaced at the top of the heap.
func (c *VClock) earliestLocked() *vtimer {
	for len(c.timers) > 0 {
		t := c.timers[0]
		if !t.done {
			return t
		}
		heap.Pop(&c.timers)
	}
	return nil
}

// AdvanceTo moves the clock forward to target, firing every timer due on
// the way in (due time, creation order) sequence. Callbacks run with the
// clock set to their due time and may schedule further timers, which also
// fire if they fall inside the window. Moving backwards is a no-op.
func (c *VClock) AdvanceTo(target time.Time) {
	for {
		c.mu.Lock()
		t := c.earliestLocked()
		if t == nil || t.at.After(target) {
			if target.After(c.now) {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		heap.Pop(&c.timers)
		t.done = true
		if t.at.After(c.now) {
			c.now = t.at
		}
		fn := t.fn
		c.mu.Unlock()
		fn() // outside the lock: callbacks take node locks and re-enter the clock
	}
}

// setNow moves the clock forward without firing timers. The harness uses
// it when delivering a network message due at an instant no timer precedes
// — the scheduler has already established that invariant.
func (c *VClock) setNow(target time.Time) {
	c.mu.Lock()
	if target.After(c.now) {
		c.now = target
	}
	c.mu.Unlock()
}
