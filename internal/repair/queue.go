package repair

import (
	"time"

	"repro/internal/meta"
)

// QueueConfig parameterizes a Queue.
type QueueConfig struct {
	// Workers bounds concurrent in-flight fetches (default 1).
	Workers int
	// Backoff is the base retry delay; attempt k waits Backoff<<k,
	// capped at Backoff<<maxShift (default 2s).
	Backoff time.Duration
}

// maxAttempts is how many failed launches a task gets before the queue
// forgets it; the caller re-adds what it still needs.
const maxAttempts = 5

// maxShift caps the exponential growth of per-attempt backoff at 8×.
// Unbounded doubling lets a few silent failures (a provider that is
// reachable but lacks the bytes never answers) push a single retry past
// the horizon of any realistic healing window.
const maxShift = 3

// task is one queued repair fetch.
type task struct {
	attempts  int
	notBefore time.Duration // earliest next launch (backoff)
	inflight  bool
	launched  time.Duration // for fetch-latency measurement
}

// Queue is the async repair pipeline's bookkeeping: a deduplicated set of
// pending fetches with bounded concurrency and per-task exponential
// backoff. It does no I/O and keeps no deadlines itself — the livenode driver
// asks it what to launch and tells it what happened — and every answer is a
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
	if cfg.Backoff <= 0 {
		cfg.Backoff = 2 * time.Second
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

// Launch marks id in flight.
func (q *Queue) Launch(id meta.DataID, now time.Duration) {
	t := q.tasks[id]
	if t == nil || t.inflight {
		return
	}
	t.inflight = true
	t.launched = now
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

// Failed tells the queue that the fetch launched for id ended unanswered:
// the task returns to pending with exponential backoff, or — once its
// attempts are exhausted — is forgotten. A task that is not in flight is
// left alone.
func (q *Queue) Failed(id meta.DataID, now time.Duration) {
	t := q.tasks[id]
	if t == nil || !t.inflight {
		return
	}
	t.inflight = false
	q.inflight--
	t.attempts++
	if t.attempts >= maxAttempts {
		delete(q.tasks, id)
		return
	}
	t.notBefore = now + q.cfg.Backoff<<min(t.attempts, maxShift)
}

// Len returns the number of tracked tasks (pending + in flight).
func (q *Queue) Len() int { return len(q.tasks) }

// InFlight returns the number of launched, unanswered fetches.
func (q *Queue) InFlight() int { return q.inflight }
