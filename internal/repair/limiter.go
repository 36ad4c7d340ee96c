package repair

import "time"

// Limiter is a token bucket over bytes with an injected clock, keeping
// repair wire traffic strictly bounded: tokens refill at Rate bytes per
// second up to Burst, and a frame may only go out if its full size fits
// the bucket now — or, for a frame larger than Burst, if the bucket is
// full, which leaves it in debt until the refill has paid the frame off:
// the long-run rate holds and no size is shut out for good. Like everything
// in this package it never reads a real clock — callers pass now, so
// virtual-clock runs stay deterministic.
type Limiter struct {
	rate   float64 // bytes per second; <= 0 means unlimited
	burst  float64
	tokens float64
	last   time.Duration
}

// NewLimiter creates a bucket refilling at rate bytes/second with the
// given burst capacity (the bucket starts full). rate <= 0 disables
// limiting; burst <= 0 defaults to one second's worth of tokens.
func NewLimiter(rate, burst int, now time.Duration) *Limiter {
	if burst <= 0 {
		burst = rate
	}
	return &Limiter{
		rate:   float64(rate),
		burst:  float64(burst),
		tokens: float64(burst),
		last:   now,
	}
}

// Allow reports whether n bytes may be sent now, consuming them if so.
func (l *Limiter) Allow(now time.Duration, n int) bool {
	if l.rate <= 0 {
		return true
	}
	l.refill(now)
	if float64(n) > l.tokens && l.tokens < l.burst {
		return false
	}
	l.tokens -= float64(n)
	return true
}

func (l *Limiter) refill(now time.Duration) {
	if now <= l.last {
		return
	}
	l.tokens += l.rate * (now - l.last).Seconds()
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
}
