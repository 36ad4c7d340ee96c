package livenode

import "time"

// Clock abstracts the node's time source — wall-clock reads and every
// timer go through it — so the chaos
// harness (internal/chaos) can drive a whole cluster through virtual time
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

// WallClock returns the real-time clock used when Config.Clock is nil.
func WallClock() Clock { return wallClock{} }
