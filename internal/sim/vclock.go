package sim

import (
	"container/heap"
	"sync"
	"time"
)

// VClock is the virtual Clock. Time only moves when the driver advances
// it; timers fire inline on the advancing goroutine in (due time, creation
// order) sequence, which is what makes whole runs — a figure sweep or a
// 1000-node cluster — deterministic. It is safe for concurrent use, so
// nodes that keep background goroutines (p2p readers, repair workers) can
// arm and stop timers while the driver advances.
//
// Timers live in a (due, seq) min-heap with lazy deletion: Stop marks a
// timer done and it is discarded when it surfaces at the top, so every
// operation is O(log timers) — at 256 nodes the heartbeat and mining
// timers alone put thousands of timers in flight. Now and due times are
// kept as offsets from the start instant: the heap compares integers, and
// the figure stack, which counts virtual time from zero, reads Elapsed
// without a time.Time round trip.
type VClock struct {
	mu     sync.Mutex
	start  time.Time
	now    time.Duration // since start
	seq    uint64
	live   int // armed timers: neither fired nor stopped
	timers timerHeap
}

type vtimer struct {
	clock *VClock
	at    time.Duration // since clock.start
	seq   uint64
	fn    func()
	done  bool // fired or stopped
}

// timerHeap orders pending timers by (due time, creation order); seq is
// unique so the order is total and firing is deterministic.
type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
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
// (a cluster's shared epoch; the zero Time for a run that only reads
// Elapsed).
func NewVClock(start time.Time) *VClock {
	return &VClock{start: start}
}

// Now implements Clock.
func (c *VClock) Now() time.Time { return c.start.Add(c.Elapsed()) }

// Elapsed returns the virtual time that has passed since the start instant.
func (c *VClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc implements Clock: fn runs when the clock is advanced to (or
// past) now+d, never synchronously inside this call. A negative d is zero:
// fn is due now, after everything already due now.
func (c *VClock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	c.live++
	t := &vtimer{clock: c, at: c.now + d, seq: c.seq, fn: fn}
	heap.Push(&c.timers, t)
	return t
}

// Stop implements Timer.
func (t *vtimer) Stop() bool {
	c := t.clock
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	c.live--
	return true
}

// Pending returns the number of armed timers.
func (c *VClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live
}

// NextTimer returns the due time of the earliest armed timer.
func (c *VClock) NextTimer() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.earliestLocked()
	if t == nil {
		return time.Time{}, false
	}
	return c.start.Add(t.at), true
}

// earliestLocked returns the earliest armed timer without removing it,
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
// clock set to their due time and may arm further timers, which also fire
// if they fall inside the window. Moving backwards is a no-op.
func (c *VClock) AdvanceTo(target time.Time) { c.advance(target.Sub(c.start)) }

// Advance is AdvanceTo(Now().Add(d)).
func (c *VClock) Advance(d time.Duration) { c.advance(c.Elapsed() + d) }

func (c *VClock) advance(target time.Duration) {
	for {
		c.mu.Lock()
		t := c.earliestLocked()
		if t == nil || t.at > target {
			if target > c.now {
				c.now = target
			}
			c.mu.Unlock()
			return
		}
		heap.Pop(&c.timers)
		t.done = true
		c.live--
		if t.at > c.now {
			c.now = t.at
		}
		fn := t.fn
		c.mu.Unlock()
		fn() // outside the lock: callbacks take node locks and re-enter the clock
	}
}

// Jump moves the clock forward to target without firing anything. It is
// for a driver that interleaves the clock with a second event source (the
// chaos harness and its network): when that source's next event is due at
// or before NextTimer, the driver jumps there and runs the event itself,
// so at one instant the network goes before the timers. AdvanceTo would
// fire the timers due at that instant first. Jumping past an armed timer
// leaves it due in the past; it fires, late, on the next advance.
func (c *VClock) Jump(target time.Time) {
	d := target.Sub(c.start)
	c.mu.Lock()
	if d > c.now {
		c.now = d
	}
	c.mu.Unlock()
}
