package repair

import (
	"time"

	"repro/internal/meta"
)

// QueueConfig parameterizes a Queue.
type QueueConfig struct {
	// Workers bounds concurrent in-flight fetches (default 1).
	Workers int
	// MaxAttempts is how many launches/deferrals a task gets before the
	// queue gives it up to the caller's fallback path (default 5).
	MaxAttempts int
	// Backoff is the base retry delay; attempt k waits Backoff<<k,
	// capped at Backoff<<maxShift (default 2s).
	Backoff time.Duration
	// Timeout is the per-fetch response deadline, also doubled per
	// attempt up to the same cap (default 10s).
	Timeout time.Duration
}

// maxShift caps the exponential growth of per-attempt backoff and timeout
// at 8×. Unbounded doubling lets a few silent failures (a provider that is
// reachable but lacks the bytes never answers) push a single retry past
// the horizon of any realistic healing window, wedging the task for the
// caller's fallback path.
const maxShift = 3

func shift(attempts int) int {
	if attempts > maxShift {
		return maxShift
	}
	return attempts
}

// task is one queued repair fetch.
type task struct {
	attempts  int
	notBefore time.Duration // earliest next launch (backoff)
	inflight  bool
	deadline  time.Duration // in-flight response deadline
	launched  time.Duration // for fetch-latency measurement
}

// Queue is the async repair pipeline's bookkeeping: a deduplicated set of
// pending fetches with bounded concurrency, per-task exponential backoff
// and in-flight timeouts. It does no I/O itself — the livenode driver asks
// it what to launch and tells it what happened — and every answer is a
// deterministic function of the calls made so far, so virtual-clock runs
// replay bit-identically.
type Queue struct {
	cfg      QueueConfig
	tasks    map[meta.DataID]*task
	inflight int
}

// NewQueue creates an empty queue.
func NewQueue(cfg QueueConfig) *Queue {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	return &Queue{cfg: cfg, tasks: make(map[meta.DataID]*task)}
}

// Add enqueues a fetch for id, reporting whether it was new. A duplicate
// of a pending or in-flight task is absorbed (in-flight dedup).
func (q *Queue) Add(id meta.DataID, now time.Duration) bool {
	if _, dup := q.tasks[id]; dup {
		return false
	}
	q.tasks[id] = &task{notBefore: now}
	return true
}

// Next returns the eligible pending task the driver should launch now:
// the one with the earliest notBefore (ties broken by ID, so the pick is
// deterministic). ok is false when nothing is eligible or all worker
// slots are in flight.
func (q *Queue) Next(now time.Duration) (id meta.DataID, ok bool) {
	if q.inflight >= q.cfg.Workers {
		return id, false
	}
	found := false
	for tid, t := range q.tasks {
		if t.inflight || t.notBefore > now {
			continue
		}
		if !found || lessTask(q.tasks[tid], tid, q.tasks[id], id) {
			id, found = tid, true
		}
	}
	return id, found
}

func lessTask(a *task, aid meta.DataID, b *task, bid meta.DataID) bool {
	if a.notBefore != b.notBefore {
		return a.notBefore < b.notBefore
	}
	for k := range aid {
		if aid[k] != bid[k] {
			return aid[k] < bid[k]
		}
	}
	return false
}

// Launch marks id in flight with a response deadline scaled by its
// attempt count.
func (q *Queue) Launch(id meta.DataID, now time.Duration) {
	t := q.tasks[id]
	if t == nil || t.inflight {
		return
	}
	t.inflight = true
	t.launched = now
	t.deadline = now + q.cfg.Timeout<<shift(t.attempts)
	q.inflight++
}

// Done removes a completed task (the content arrived, by whatever path)
// and returns the fetch latency when it was in flight.
func (q *Queue) Done(id meta.DataID, now time.Duration) (latency time.Duration, wasInflight bool) {
	t := q.tasks[id]
	if t == nil {
		return 0, false
	}
	if t.inflight {
		q.inflight--
		latency, wasInflight = now-t.launched, true
	}
	delete(q.tasks, id)
	return latency, wasInflight
}

// Defer pushes a pending task's next launch to the given time, charging
// one attempt (the driver calls it when no provider is currently
// reachable). It reports true when the task ran out of attempts and was
// dropped — the caller's cue to fall back to a broadcast fetch.
func (q *Queue) Defer(id meta.DataID, until time.Duration) (gaveUp bool) {
	t := q.tasks[id]
	if t == nil || t.inflight {
		return false
	}
	t.attempts++
	if t.attempts >= q.cfg.MaxAttempts {
		delete(q.tasks, id)
		return true
	}
	t.notBefore = until
	return false
}

// Expire fails every in-flight task whose deadline has passed: the task
// returns to pending with exponential backoff, or — once its attempts are
// exhausted — is dropped and returned (sorted) for the fallback path.
func (q *Queue) Expire(now time.Duration) (gaveUp []meta.DataID) {
	var timedOut []meta.DataID
	for id, t := range q.tasks {
		if t.inflight && t.deadline <= now {
			timedOut = append(timedOut, id)
		}
	}
	sortIDs(timedOut)
	for _, id := range timedOut {
		t := q.tasks[id]
		t.inflight = false
		q.inflight--
		t.attempts++
		if t.attempts >= q.cfg.MaxAttempts {
			delete(q.tasks, id)
			gaveUp = append(gaveUp, id)
			continue
		}
		t.notBefore = now + q.cfg.Backoff<<shift(t.attempts)
	}
	return gaveUp
}

// Attempts returns a task's attempt count (0 if unknown); the driver uses
// it to rotate across candidate providers between retries.
func (q *Queue) Attempts(id meta.DataID) int {
	if t := q.tasks[id]; t != nil {
		return t.attempts
	}
	return 0
}

// Has reports whether id is tracked, pending or in flight: the driver
// accepts fetched content only for an item it is still trying to get.
func (q *Queue) Has(id meta.DataID) bool { return q.tasks[id] != nil }

// Len returns the number of tracked tasks (pending + in flight).
func (q *Queue) Len() int { return len(q.tasks) }

// InFlight returns the number of launched, unanswered fetches.
func (q *Queue) InFlight() int { return q.inflight }
