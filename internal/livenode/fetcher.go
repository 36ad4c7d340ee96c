package livenode

import (
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/sim"
)

// Keyed fetcher (DESIGN.md §11.2). The paper has one read path — a node that
// needs something asks a node that has it (§IV-D) — and so does this package:
// a block body, a metadata item and a data item are all fetched by
//
//	begin(key, candidates) → ask one → silent for syncTimeout, or refused? ask
//	  the next → … → answered (finish) | candidates exhausted | cleared
//
// The planes differ in the key, in who the candidates are and in what "nobody
// answered" means: they supply an ask and the exhausted verdict and never see
// a timer, the cursor or the stale-callback guard.

// pendingFetch is one fetch in flight, in any plane, guarded by its table's
// lock. A plane reads start, seq and cands and owns the last three fields.
type pendingFetch struct {
	start   time.Time // when the fetch began: its latency counts from here
	seq     uint64    // begin order within the table
	cands   []string  // transport addresses to ask, in order
	next    int       // cands[:next] have been asked
	attempt sim.Timer // wait on the candidate asked last, or for the walk again; nil before the first ask

	compact *block.Compact            // block plane: the sender's body, parked while the items it
	missing map[meta.ShortID]struct{} // references and this node lacks — missing — are fetched (§13.1)
	pushed  bool                      // block plane: the body came unasked, along the tree (§13)
	repair  bool                      // data plane: a re-replication, paid from the repair budget (§11)
	read    bool                      // data plane: a consumer's read, not a storer's own copy
}

// fetcher is one table of pending fetches. A timer callback acts only if the
// entry it was armed for is still the one registered under its key (pointer
// identity) and the timer is still that entry's, so a callback that lost the
// race against an answer, a teardown, a refusal or a later fetch of the same
// key does nothing.
type fetcher[K comparable] struct {
	mu      *sync.Mutex // the owner's lock; guards pending and every entry
	clock   sim.Clock
	pending map[K]*pendingFetch
	seq     uint64

	// ask sends the request for k to one candidate (mu not held). False means
	// it could not be sent: the next candidate is asked at once.
	ask func(k K, e *pendingFetch, to string) bool
	// exhausted is the plane's verdict on a fetch whose last candidate failed
	// (mu held). A zero again ends the fetch; a positive one keeps it pending
	// and walks its candidates again, from the first, once again has passed.
	// unlocked, if not nil, runs once mu is released.
	exhausted func(k K, e *pendingFetch) (again time.Duration, unlocked func())
}

func newFetcher[K comparable](mu *sync.Mutex, clock sim.Clock) *fetcher[K] {
	return &fetcher[K]{mu: mu, clock: clock, pending: make(map[K]*pendingFetch)}
}

// begin registers a fetch of k from cands and returns it; nothing is asked
// until advance. While a fetch of k is pending, begin restarts nothing and
// returns that one (mu held).
func (f *fetcher[K]) begin(k K, cands []string) *pendingFetch {
	if e := f.pending[k]; e != nil {
		return e
	}
	f.seq++
	e := &pendingFetch{start: f.clock.Now(), seq: f.seq, cands: cands}
	f.pending[k] = e
	return e
}

// advance asks the next candidate of e: the caller does so once after begin
// and whenever the candidate asked last has failed, the attempt timer when it
// stayed silent. Past the last candidate the fetch is exhausted (mu not held).
func (f *fetcher[K]) advance(k K, e *pendingFetch) {
	for {
		f.mu.Lock()
		if f.pending[k] != e {
			f.mu.Unlock()
			return // answered, exhausted or cleared meanwhile
		}
		if e.attempt != nil {
			e.attempt.Stop()
			e.attempt = nil
		}
		if e.next == len(e.cands) {
			again, unlocked := f.exhausted(k, e)
			if again > 0 {
				e.next = 0
				f.wait(k, e, again)
			} else {
				delete(f.pending, k)
			}
			f.mu.Unlock()
			if unlocked != nil {
				unlocked()
			}
			return
		}
		to := e.cands[e.next]
		e.next++
		f.wait(k, e, syncTimeout)
		f.mu.Unlock()
		if f.ask(k, e, to) {
			return
		}
	}
}

// wait arms e's attempt timer, which moves the walk on when it fires (mu
// held).
func (f *fetcher[K]) wait(k K, e *pendingFetch, d time.Duration) {
	var t sim.Timer
	t = f.clock.AfterFunc(d, func() {
		f.mu.Lock()
		mine := f.pending[k] == e && e.attempt == t
		if mine {
			e.attempt = nil
		}
		f.mu.Unlock()
		if mine {
			f.advance(k, e)
		}
	})
	e.attempt = t
}

// refused moves the fetch of k on at once if from is the candidate asked
// last: it answered, but not with what was asked for (mu not held).
func (f *fetcher[K]) refused(k K, from string) {
	f.mu.Lock()
	e := f.pending[k]
	asked := e != nil && e.attempt != nil && e.next > 0 && e.cands[e.next-1] == from
	if asked {
		e.attempt.Stop()
		e.attempt = nil
	}
	f.mu.Unlock()
	if asked {
		f.advance(k, e)
	}
}

// finish ends the pending fetch of k — it was answered — stopping its timer,
// and returns it; nil if none was pending (mu held).
func (f *fetcher[K]) finish(k K) *pendingFetch {
	e := f.pending[k]
	if e == nil {
		return nil
	}
	delete(f.pending, k)
	if e.attempt != nil {
		e.attempt.Stop()
		e.attempt = nil
	}
	return e
}

// clear drops every pending fetch and its timer without a verdict (mu held).
func (f *fetcher[K]) clear() {
	for k := range f.pending {
		f.finish(k)
	}
}
