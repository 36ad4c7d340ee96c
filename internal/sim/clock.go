// Package sim is the one time source of the repository: the Clock/Timer
// contract every node and every protocol layer arms its timers through,
// the wall clock that production nodes run on, and VClock, the virtual
// clock that orders a whole simulated run.
//
// The paper's evaluation (simulated minutes, a fixed delay per radio hop)
// and the live stack's deterministic clusters (internal/chaos) are driven
// by the same VClock, so "what happens first when two things are due at the
// same instant" is decided here and nowhere else: timers fire by (due time,
// creation order), callbacks run on the advancing goroutine, and two runs of
// the same program with the same seeds produce bit-identical schedules.
package sim

import "time"

// Clock is a time source: wall-clock reads and every timer of a node go
// through it, so a driver can run a whole cluster through virtual time
// deterministically. Production nodes use WallClock.
//
// Implementations must be safe for concurrent use; timer callbacks may
// fire from any goroutine.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules fn to run once after d (d <= 0 means as soon as
	// possible, never synchronously inside the AfterFunc call).
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a cancellable pending callback returned by Clock.AfterFunc.
type Timer interface {
	// Stop cancels the timer; it reports whether the callback was still
	// pending (same contract as time.Timer.Stop).
	Stop() bool
}

type wallClock struct{}

func (wallClock) Now() time.Time                             { return time.Now() }
func (wallClock) AfterFunc(d time.Duration, fn func()) Timer { return time.AfterFunc(d, fn) }

// WallClock returns the real-time clock.
func WallClock() Clock { return wallClock{} }

// Every runs fn once per period on c, first one period from now, until fn
// returns false. The next firing is armed after fn returns, so whatever fn
// arms for that same instant fires before it.
func Every(c Clock, period time.Duration, fn func() bool) {
	c.AfterFunc(period, func() {
		if fn() {
			Every(c, period, fn)
		}
	})
}
