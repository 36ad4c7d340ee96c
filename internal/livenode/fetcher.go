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
//	begin(key, candidates) → ask one → silent for syncTimeout? ask the next → …
//	  → answered (finish) | candidates exhausted | expired | cleared
//
// The planes differ in the key, in who the candidates are and in what "nobody
// answered" means: they supply an ask and the verdict hooks and never see a
// timer, the cursor or the stale-callback guard.

// pendingFetch is one fetch in flight, in any plane, guarded by its table's
// lock. A plane reads start, seq and cands and owns the last three fields.
type pendingFetch struct {
	start   time.Time // when the fetch began: its latency counts from here
	seq     uint64    // begin order within the table
	cands   []string  // transport addresses to ask, in order
	next    int       // cands[:next] have been asked
	attempt sim.Timer // wait on the candidate asked last; nil before the first ask and once exhausted
	expiry  sim.Timer // bound on the whole fetch; nil when running out of candidates ends it

	compact *block.Compact            // block plane: the sender's body, parked while the items it
	missing map[meta.ShortID]struct{} // references and this node lacks — missing — are fetched (§13.1)
	pushed  bool                      // block plane: the body came unasked, along the tree (§13)
	repair  bool                      // data plane: a re-replication, paid from the repair budget (§11)
	read    bool                      // data plane: a consumer's read, not a storer's own copy
}

// waiting reports whether a candidate has been asked and may still answer.
func (e *pendingFetch) waiting() bool { return e.attempt != nil }

// fetcher is one table of pending fetches. A timer callback acts only if the
// entry it was armed for is still the one registered under its key (pointer
// identity), so a callback that lost the race against an answer, a teardown
// or a later fetch of the same key does nothing.
type fetcher[K comparable] struct {
	mu      *sync.Mutex // the owner's lock; guards pending and every entry
	clock   sim.Clock
	pending map[K]*pendingFetch
	seq     uint64

	// ask sends the request for k to one candidate (mu not held). False means
	// it could not be sent: the next candidate is asked at once.
	ask func(k K, e *pendingFetch, to string) bool
	// exhausted is the plane's verdict on a fetch whose last candidate failed
	// (mu held); what it returns, if anything, runs once mu is released. A
	// fetch without an expiry has ended by then; one with an expiry lives on
	// until an answer or the expiry, and every further advance exhausts it
	// again.
	exhausted func(k K, e *pendingFetch) (unlocked func())
	// expired is told that a fetch was dropped by its expiry timer (mu held).
	expired func(k K, e *pendingFetch)
}

func newFetcher[K comparable](mu *sync.Mutex, clock sim.Clock) *fetcher[K] {
	return &fetcher[K]{mu: mu, clock: clock, pending: make(map[K]*pendingFetch)}
}

// begin registers a fetch of k from cands and returns it; nothing is asked
// until advance. A positive expiry bounds the whole fetch. While a fetch of k
// is pending, begin restarts nothing and returns that one (mu held).
func (f *fetcher[K]) begin(k K, cands []string, expiry time.Duration) *pendingFetch {
	if e := f.pending[k]; e != nil {
		return e
	}
	f.seq++
	e := &pendingFetch{start: f.clock.Now(), seq: f.seq, cands: cands}
	if expiry > 0 {
		e.expiry = f.clock.AfterFunc(expiry, func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			if f.pending[k] == e {
				f.finish(k)
				f.expired(k, e)
			}
		})
	}
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
			return // answered, exhausted, expired or cleared meanwhile
		}
		if e.attempt != nil {
			e.attempt.Stop()
			e.attempt = nil
		}
		if e.next == len(e.cands) {
			if e.expiry == nil {
				delete(f.pending, k)
			}
			unlocked := f.exhausted(k, e)
			f.mu.Unlock()
			if unlocked != nil {
				unlocked()
			}
			return
		}
		to := e.cands[e.next]
		e.next++
		e.attempt = f.clock.AfterFunc(syncTimeout, func() { f.advance(k, e) })
		f.mu.Unlock()
		if f.ask(k, e, to) {
			return
		}
	}
}

// finish ends the pending fetch of k — it was answered — stopping the timers
// it owns, and returns it; nil if none was pending (mu held).
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
	if e.expiry != nil {
		e.expiry.Stop()
	}
	return e
}

// clear drops every pending fetch and its timers without a verdict (mu held).
func (f *fetcher[K]) clear() {
	for k := range f.pending {
		f.finish(k)
	}
}
