package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// The TestEngine*, TestTimerStop, TestScheduleAt, TestStep and TestTicker
// cases below were written against sim.Engine, the figure stack's scheduler
// until it was folded into VClock. They keep their names because they pin
// the same rules on the one clock that is left; offsets from a zero start
// are how the figure stack reads virtual time (Elapsed).

// TestVClockOrdering: timers fire in (due, creation) order even when
// scheduled out of order, and stopped timers never fire.
func TestVClockOrdering(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	c := NewVClock(epoch)
	var fired []int
	c.AfterFunc(3*time.Second, func() { fired = append(fired, 3) })
	c.AfterFunc(1*time.Second, func() { fired = append(fired, 1) })
	tieA := c.AfterFunc(2*time.Second, func() { fired = append(fired, 2) })
	c.AfterFunc(2*time.Second, func() { fired = append(fired, 22) })
	stopped := c.AfterFunc(500*time.Millisecond, func() { fired = append(fired, -1) })
	if !stopped.Stop() {
		t.Fatal("first Stop reported already-done")
	}
	if stopped.Stop() {
		t.Fatal("second Stop reported success")
	}
	_ = tieA
	c.AdvanceTo(epoch.Add(10 * time.Second))
	want := []int{1, 2, 22, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestVClockTimerChain: a callback scheduling another timer inside the
// advance window fires within the same AdvanceTo.
func TestVClockTimerChain(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	c := NewVClock(epoch)
	var hits int
	c.AfterFunc(time.Second, func() {
		hits++
		c.AfterFunc(time.Second, func() { hits++ })
	})
	c.AdvanceTo(epoch.Add(5 * time.Second))
	if hits != 2 {
		t.Fatalf("chained timer fired %d times, want 2", hits)
	}
	if got := c.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("clock at %v, want %v", got, epoch.Add(5*time.Second))
	}
}

// TestVClockHotPathAllocs is the timer heap's alloc gate: one
// schedule+fire cycle allocates only the timer struct itself (the heap
// storage is reused), and Stop allocates nothing. This is what keeps
// 256-node runs — thousands of heartbeat and mining timers in flight —
// allocation-flat.
func TestVClockHotPathAllocs(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	c := NewVClock(epoch)
	fn := func() {}
	// Warm the heap storage.
	for i := 0; i < 64; i++ {
		c.AfterFunc(time.Millisecond, fn)
	}
	c.AdvanceTo(c.Now().Add(time.Second))

	if got := testing.AllocsPerRun(1000, func() {
		c.AfterFunc(time.Millisecond, fn)
		c.AdvanceTo(c.Now().Add(2 * time.Millisecond))
	}); got > 1 {
		t.Fatalf("schedule+fire cycle allocates %.2f/op, want ≤ 1 (the timer struct)", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		c.AfterFunc(time.Millisecond, fn).Stop()
		c.AdvanceTo(c.Now().Add(2 * time.Millisecond))
	}); got > 1 {
		t.Fatalf("schedule+stop cycle allocates %.2f/op, want ≤ 1 (the timer struct)", got)
	}
}

// TestVClockManyTimers drives a large mixed schedule and checks the heap
// discipline holds: every live timer fires exactly once, in order.
func TestVClockManyTimers(t *testing.T) {
	epoch := time.Unix(1700000000, 0)
	c := NewVClock(epoch)
	const n = 5000
	var fired int
	var last time.Time
	for i := 0; i < n; i++ {
		d := time.Duration((i*7919)%1000) * time.Millisecond
		timer := c.AfterFunc(d, func() {
			now := c.Now()
			if now.Before(last) {
				t.Errorf("timer fired at %v after %v", now, last)
			}
			last = now
			fired++
		})
		if i%3 == 0 {
			timer.Stop()
		}
	}
	c.AdvanceTo(epoch.Add(2 * time.Second))
	want := n - (n+2)/3
	if fired != want {
		t.Fatalf("%d timers fired, want %d", fired, want)
	}
	if _, ok := c.NextTimer(); ok {
		t.Fatal("timers still pending after full advance")
	}
}

// TestVClockConcurrentUse: nodes keep goroutines of their own (p2p readers,
// repair workers) that arm and stop timers while the driver advances. Every
// timer must fire or be stopped exactly once and the armed count end at
// zero; the race detector checks the rest.
func TestVClockConcurrentUse(t *testing.T) {
	c := NewVClock(time.Unix(1700000000, 0))
	const workers, each = 4, 500
	var fired, stopped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				timer := c.AfterFunc(time.Duration(i%7)*time.Millisecond, func() { fired.Add(1) })
				if i%3 == 0 && timer.Stop() {
					stopped.Add(1)
				}
				_ = c.Now()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for armed := true; armed; {
		select {
		case <-done:
			armed = false
		default:
		}
		c.Advance(time.Millisecond)
	}
	c.Advance(time.Second)
	if got := fired.Load() + stopped.Load(); got != workers*each || c.Pending() != 0 {
		t.Fatalf("fired %d + stopped %d of %d timers, %d still armed", fired.Load(), stopped.Load(), workers*each, c.Pending())
	}
}

// run drains the clock: every timer armed, however far out, fires.
func run(c *VClock) {
	for {
		at, ok := c.NextTimer()
		if !ok {
			return
		}
		c.AdvanceTo(at)
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	c := NewVClock(time.Time{})
	var got []time.Duration
	for _, d := range []time.Duration{5 * time.Second, time.Second, 3 * time.Second, 2 * time.Second} {
		c.AfterFunc(d, func() { got = append(got, c.Elapsed()) })
	}
	run(c)
	want := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}
	if len(got) != len(want) {
		t.Fatalf("fired %d timers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("timer %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreaksBySchedulingOrder(t *testing.T) {
	c := NewVClock(time.Time{})
	var order []int
	for i := 0; i < 10; i++ {
		c.AfterFunc(time.Second, func() { order = append(order, i) })
	}
	run(c)
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (same-instant timers must fire in creation order)", i, v, i)
		}
	}
}

func TestEngineHorizonLeavesFutureEventsQueued(t *testing.T) {
	c := NewVClock(time.Time{})
	ran := 0
	c.AfterFunc(time.Second, func() { ran++ })
	c.AfterFunc(10*time.Second, func() { ran++ })
	c.Advance(5 * time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if c.Elapsed() != 5*time.Second {
		t.Fatalf("Elapsed = %v, want the clock at the 5s horizon", c.Elapsed())
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", c.Pending())
	}
	c.Advance(5 * time.Second) // a timer due exactly at the horizon fires
	if ran != 2 || c.Elapsed() != 10*time.Second || c.Pending() != 0 {
		t.Fatalf("after the second advance: ran=%d elapsed=%v pending=%d", ran, c.Elapsed(), c.Pending())
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	c := NewVClock(time.Time{})
	var times []time.Duration
	c.AfterFunc(time.Second, func() {
		times = append(times, c.Elapsed())
		c.AfterFunc(2*time.Second, func() { times = append(times, c.Elapsed()) })
	})
	run(c)
	if len(times) != 2 || times[0] != time.Second || times[1] != 3*time.Second {
		t.Fatalf("times = %v, want [1s 3s]", times)
	}
}

// A negative delay is due now, but behind what is already due now.
func TestEngineNegativeDelayRunsNow(t *testing.T) {
	c := NewVClock(time.Time{})
	var order []string
	c.AfterFunc(time.Second, func() {
		c.AfterFunc(-5*time.Second, func() {
			if c.Elapsed() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", c.Elapsed())
			}
			order = append(order, "negative")
		})
	})
	c.AfterFunc(time.Second, func() { order = append(order, "queued") })
	run(c)
	if len(order) != 2 || order[0] != "queued" || order[1] != "negative" {
		t.Fatalf("order = %v, want [queued negative]", order)
	}
}

func TestTimerStop(t *testing.T) {
	c := NewVClock(time.Time{})
	fired := 0
	stopped := c.AfterFunc(time.Second, func() { fired++ })
	if !stopped.Stop() {
		t.Fatal("Stop returned false for a pending timer")
	}
	if stopped.Stop() {
		t.Fatal("second Stop returned true")
	}
	ran := c.AfterFunc(time.Second, func() { fired++ })
	run(c)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (the stopped timer must not fire)", fired)
	}
	if ran.Stop() {
		t.Fatal("Stop returned true for a timer that had fired")
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending = %d after every timer fired or stopped", c.Pending())
	}
}

// Callbacks see the clock at their own due time, so "at absolute virtual
// time t" is AfterFunc(t - Elapsed()) from anywhere (core.System.at).
func TestScheduleAt(t *testing.T) {
	c := NewVClock(time.Time{})
	var at time.Duration
	c.AfterFunc(2*time.Second, func() {
		c.AfterFunc(7*time.Second-c.Elapsed(), func() { at = c.Elapsed() })
	})
	c.Advance(time.Minute)
	if at != 7*time.Second {
		t.Fatalf("absolute timer fired at %v, want 7s", at)
	}
}

// Stepping timer by timer — NextTimer, then AdvanceTo it — is how the
// chaos harness interleaves the clock with its network.
func TestStep(t *testing.T) {
	start := time.Unix(1700000000, 0)
	c := NewVClock(start)
	n := 0
	c.AfterFunc(time.Second, func() { n++ })
	c.AfterFunc(1500*time.Millisecond, func() { n += 100 }).Stop()
	c.AfterFunc(2*time.Second, func() { n++ })
	for i, want := range []time.Duration{time.Second, 2 * time.Second} {
		at, ok := c.NextTimer()
		if !ok || !at.Equal(start.Add(want)) {
			t.Fatalf("step %d: NextTimer = %v %v, want %v", i, at, ok, start.Add(want))
		}
		c.AdvanceTo(at)
		if n != i+1 {
			t.Fatalf("step %d: n = %d", i, n)
		}
	}
	if _, ok := c.NextTimer(); ok {
		t.Fatal("NextTimer on a drained clock reported a timer")
	}
}

// TestJumpFiresNothing: Jump moves Now and leaves every timer armed, even
// one due at the instant jumped to; the next advance fires it.
func TestJumpFiresNothing(t *testing.T) {
	start := time.Unix(1700000000, 0)
	c := NewVClock(start)
	fired := false
	c.AfterFunc(time.Second, func() { fired = true })
	c.Jump(start.Add(time.Second))
	if fired || c.Pending() != 1 || !c.Now().Equal(start.Add(time.Second)) {
		t.Fatalf("after Jump: fired=%v pending=%d now=%v", fired, c.Pending(), c.Now())
	}
	c.Jump(start) // backwards: no-op
	if !c.Now().Equal(start.Add(time.Second)) {
		t.Fatalf("Jump moved the clock backwards to %v", c.Now())
	}
	c.Advance(0)
	if !fired {
		t.Fatal("timer due at the jumped-to instant did not fire on the next advance")
	}
}

// Every re-arms after its callback and stops from inside it.
func TestTicker(t *testing.T) {
	c := NewVClock(time.Time{})
	var fires []time.Duration
	Every(c, 10*time.Second, func() bool {
		fires = append(fires, c.Elapsed())
		return len(fires) < 3
	})
	c.Advance(time.Minute)
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	if len(fires) != len(want) {
		t.Fatalf("fires = %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fires = %v, want %v", fires, want)
		}
	}
	if c.Pending() != 0 {
		t.Fatalf("stopped Every left %d timers armed", c.Pending())
	}
}

// Property: for any set of non-negative delays, timers fire in sorted order
// and the clock never goes backwards.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		c := NewVClock(time.Time{})
		var fired []time.Duration
		for _, r := range raw {
			c.AfterFunc(time.Duration(r)*time.Millisecond, func() { fired = append(fired, c.Elapsed()) })
		}
		run(c)
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a run is deterministic — executing the same randomized,
// self-extending schedule twice yields identical firing sequences.
func TestEngineDeterminismProperty(t *testing.T) {
	runSeed := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		c := NewVClock(time.Time{})
		var fired []time.Duration
		var schedule func(depth int)
		schedule = func(depth int) {
			n := rng.Intn(5)
			for i := 0; i < n; i++ {
				d := time.Duration(rng.Intn(1000)) * time.Millisecond
				c.AfterFunc(d, func() {
					fired = append(fired, c.Elapsed())
					if depth < 3 {
						schedule(depth + 1)
					}
				})
			}
		}
		schedule(0)
		c.Advance(time.Hour)
		return fired
	}
	for seed := int64(1); seed <= 20; seed++ {
		a, b := runSeed(seed), runSeed(seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: timer %d differs: %v vs %v", seed, i, a[i], b[i])
			}
		}
	}
}
