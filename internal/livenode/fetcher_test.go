package livenode

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// Model-based test of the keyed fetcher (fetcher.go), no node: a byte script
// drives a fetcher[uint8] on the fake clock and, step for step, a reference
// that has no timers at all — it keeps deadlines as plain values and is
// stepped through them in (time, arming order). Both sides log what they ask
// and every verdict; the logs must stay equal.

const fuzzKeys = 4

// fuzzRewalks are the verdicts on an exhausted fetch a script picks from: 0
// ends it, a delay walks its candidates again after it (the data plane's
// mobility epoch is 15 syncTimeouts).
var fuzzRewalks = [4]time.Duration{0, syncTimeout / 2, syncTimeout, 15 * syncTimeout}

// refDeadline is a timer of the reference: armed says whether it is pending.
type refDeadline struct {
	at    time.Time
	order int // arming order, the fake clock's tie-break
	armed bool
}

type refFetch struct {
	cands   []string
	next    int
	again   time.Duration // the exhausted verdict: 0 ends the fetch
	attempt refDeadline
}

// fetcherModel is the reference: what a fetcher must do, written without
// timers, locks or guards.
type fetcherModel struct {
	now   time.Time
	live  map[uint8]*refFetch
	down  map[string]bool // candidates the transport cannot reach
	armed int             // deadlines armed so far
	log   []string
}

func (m *fetcherModel) arm(d time.Duration) refDeadline {
	m.armed++
	return refDeadline{at: m.now.Add(d), order: m.armed, armed: true}
}

func (m *fetcherModel) begin(k uint8, cands []string, again time.Duration) {
	if m.live[k] == nil { // a pending fetch is left alone
		r := &refFetch{cands: cands, again: again}
		m.live[k] = r
		m.advance(k, r)
	}
}

func (m *fetcherModel) advance(k uint8, r *refFetch) {
	for {
		r.attempt.armed = false
		if r.next == len(r.cands) {
			m.log = append(m.log, fmt.Sprintf("exhausted %d", k))
			if r.again > 0 {
				r.next = 0
				r.attempt = m.arm(r.again)
			} else {
				delete(m.live, k)
			}
			return
		}
		to := r.cands[r.next]
		r.next++
		r.attempt = m.arm(syncTimeout)
		m.log = append(m.log, fmt.Sprintf("ask %d %s", k, to))
		if !m.down[to] {
			return
		}
	}
}

// refused is an answer from `from` that is not the item: it moves the walk
// on only if from is the candidate asked last.
func (m *fetcherModel) refused(k uint8, from string) {
	if r := m.live[k]; r != nil && r.attempt.armed && r.next > 0 && r.cands[r.next-1] == from {
		m.advance(k, r)
	}
}

// due returns the deadline that fires next, at or before limit, and its key.
func (m *fetcherModel) due(limit time.Time) (key uint8, best refDeadline) {
	for k, r := range m.live {
		d := r.attempt
		if !d.armed || d.at.After(limit) {
			continue
		}
		if !best.armed || d.at.Before(best.at) || (d.at.Equal(best.at) && d.order < best.order) {
			key, best = k, d
		}
	}
	return key, best
}

func (m *fetcherModel) runUntil(limit time.Time) {
	for {
		k, d := m.due(limit)
		if !d.armed {
			m.now = limit
			return
		}
		m.now = d.at
		m.advance(k, m.live[k])
	}
}

func (m *fetcherModel) timers() (n int) {
	for _, r := range m.live {
		if r.attempt.armed {
			n++
		}
	}
	return n
}

// runFetcherScript plays script against a fetcher and the model and fails on
// the first difference. Two bytes make a step: an operation and its argument.
func runFetcherScript(t *testing.T, script []byte) {
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	model := &fetcherModel{now: epoch, live: make(map[uint8]*refFetch), down: make(map[string]bool)}

	var mu sync.Mutex
	var log []string
	ended := make(map[*pendingFetch]string) // every entry that is over, and why
	began, fetches, checked := 0, 0, 0      // checked: log entries already compared
	f := newFetcher[uint8](&mu, clk)
	alive := func(hook string, k uint8, e *pendingFetch) {
		if why, over := ended[e]; over {
			t.Fatalf("%s called for a fetch of %d that had ended (%s)", hook, k, why)
		}
	}
	f.ask = func(k uint8, e *pendingFetch, to string) bool {
		alive("ask", k, e)
		log = append(log, fmt.Sprintf("ask %d %s", k, to))
		return !model.down[to]
	}
	again := make(map[*pendingFetch]time.Duration) // each fetch's verdict
	f.exhausted = func(k uint8, e *pendingFetch) (time.Duration, func()) {
		alive("exhausted", k, e)
		if again[e] == 0 {
			ended[e] = "exhausted"
		}
		// The verdict is logged from the unlocked half, so the test also
		// sees that half run, and run once.
		return again[e], func() { log = append(log, fmt.Sprintf("exhausted %d", k)) }
	}
	clearAll := func() {
		mu.Lock()
		for _, e := range f.pending {
			ended[e] = "cleared"
		}
		f.clear()
		mu.Unlock()
		model.live = make(map[uint8]*refFetch)
	}

	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i]%6, script[i+1]
		k := arg % fuzzKeys
		switch op {
		case 0: // begin k: arg picks how many candidates, which are down, the verdict
			fetches++
			cands := make([]string, int(arg>>2)%4)
			for j := range cands {
				cands[j] = fmt.Sprintf("f%dc%d", fetches, j)
				model.down[cands[j]] = arg>>(5+j)&1 == 1
			}
			rewalk := fuzzRewalks[arg>>4%4]
			mu.Lock()
			before := f.pending[k]
			e := f.begin(k, cands)
			if before == nil {
				again[e] = rewalk
			}
			mu.Unlock()
			if before == nil {
				began++
				f.advance(k, e)
			} else if e != before {
				t.Fatalf("begin for pending key %d replaced its fetch", k)
			}
			model.begin(k, cands, rewalk)
		case 1: // the answer for k arrives
			mu.Lock()
			e := f.finish(k)
			mu.Unlock()
			if (e != nil) != (model.live[k] != nil) {
				t.Fatalf("finish(%d) = %v, the model has %v", k, e, model.live[k])
			}
			if e != nil {
				alive("finish", k, e)
				ended[e] = "answered"
				delete(model.live, k)
			}
		case 2: // run to the next timer
			if _, d := model.due(model.now.Add(time.Hour)); d.armed {
				model.runUntil(d.at)
				clk.Advance(d.at.Sub(clk.Now()))
			}
		case 3: // let time pass
			d := time.Duration(arg) * syncTimeout / 10
			model.runUntil(model.now.Add(d))
			clk.Advance(d)
		case 4:
			clearAll()
		case 5: // an answer that is not the item: from the candidate asked last, or a stranger
			from := "stranger"
			if r := model.live[k]; r != nil && r.next > 0 && arg>>2&1 == 0 {
				from = r.cands[r.next-1]
			}
			f.refused(k, from)
			model.refused(k, from)
		}
		if !reflect.DeepEqual(log[checked:], model.log[min(checked, len(model.log)):]) {
			t.Fatalf("step %d (op %d arg %d): fetcher did\n  %v\nmodel\n  %v", i/2, op, arg, log, model.log)
		}
		checked = len(log)
		mu.Lock()
		pending := len(f.pending)
		mu.Unlock()
		if pending != len(model.live) || clk.Pending() != model.timers() {
			t.Fatalf("step %d (op %d arg %d): %d pending with %d live timers, model has %d with %d",
				i/2, op, arg, pending, clk.Pending(), len(model.live), model.timers())
		}
	}
	clearAll()
	if clk.Pending() != 0 {
		t.Fatalf("%d timers live after clear", clk.Pending())
	}
	if len(ended) != began {
		t.Fatalf("%d fetches began, %d ended: %v", began, len(ended), ended)
	}
	clk.Advance(time.Hour)
	if !reflect.DeepEqual(log, model.log) {
		t.Fatalf("a callback ran after clear: %v", log[len(model.log):])
	}
}

func FuzzFetcher(f *testing.F) {
	// One candidate, silent: asked, exhausted, over (the relays' shape).
	f.Add([]byte{0, 1<<2 | 0, 2, 0})
	// Three candidates, a re-walk after 15 syncTimeouts: cursor, a repeated
	// begin, the wait, the walk again (the data plane's own-copy shape).
	f.Add([]byte{0, 3<<4 | 3<<2 | 1, 2, 0, 2, 0, 0, 1, 2, 0, 2, 0, 2, 0, 3, 200})
	// Unreachable candidates are skipped inside one advance.
	f.Add([]byte{0, 3<<5 | 2<<4 | 3<<2 | 2, 2, 0, 1, 2})
	// No candidates at all; answers for nothing; clear in the middle.
	f.Add([]byte{0, 3<<4 | 3, 1, 3, 1, 0, 0, 1<<2 | 0, 4, 0, 3, 50})
	// Refusals: a stranger's moves nothing, the asked candidate's moves the
	// walk on at once, past its end too; none in the re-walk wait.
	f.Add([]byte{0, 2<<4 | 3<<2 | 1, 5, 1<<2 | 1, 5, 1, 5, 1, 5, 1, 5, 1, 3, 5, 5, 1})
	f.Fuzz(runFetcherScript)
}
