// Package repair is the self-healing data plane: the machinery that
// notices when churn has taken live replicas below their floor and brings
// them back without flooding the network.
//
// The paper's UFL placement (Section IV) decides where replicas live at
// mining time and never looks back — when a storing node churns away, its
// items silently lose a replica until they expire. This package closes
// that loop with three cooperating, purely-deterministic pieces:
//
//   - Index: a provider index derived only from chain metadata. It answers
//     "which nodes store item X" and "which items are under their replica
//     floor", is maintained incrementally from adopted blocks and can be
//     rebuilt from scratch for auditing (the two must agree bit-for-bit;
//     see the differential test).
//   - Detector: a churn detector turning transport liveness signals
//     (heartbeats, send failures, mined blocks) into alive/suspect/dead
//     verdicts with hysteresis, so a transient partition does not trigger
//     a repair storm.
//   - Queue + Limiter: an async repair queue with in-flight dedup and
//     exponential backoff, throttled by a token bucket so repair traffic
//     stays strictly below consensus traffic.
//
// Everything here is I/O-free and clock-injected: callers pass the current
// time explicitly, so the same code runs identically under the chaos
// harness's virtual clock and the wall clock.
package repair

import (
	"bytes"
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

// Index is the chain-derived provider index. It mirrors the assignment
// semantics of engine.StorageView exactly — re-announcements replace the
// previous assignment, expiry is lazy against the injected clock, and an
// expired item stays expired even if a stale re-announcement arrives —
// which is what makes the incremental and rebuilt-from-scratch forms
// bit-identical.
type Index struct {
	n         int
	providers map[meta.DataID][]int // ascending node IDs
	sizes     map[meta.DataID]int   // DataSize, for rate-limit charging
	byNode    []map[meta.DataID]struct{}
	expiries  expiryHeap
	expired   map[meta.DataID]bool
}

// NewIndex creates an empty index over an n-node roster.
func NewIndex(n int) *Index {
	idx := &Index{
		n:         n,
		providers: make(map[meta.DataID][]int),
		sizes:     make(map[meta.DataID]int),
		byNode:    make([]map[meta.DataID]struct{}, n),
		expired:   make(map[meta.DataID]bool),
	}
	for i := range idx.byNode {
		idx.byNode[i] = make(map[meta.DataID]struct{})
	}
	return idx
}

type expiry struct {
	at time.Duration
	id meta.DataID
}

type expiryHeap []expiry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(expiry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Apply folds one adopted item announcement into the index. A known ID is
// a re-announcement (migration or repair): the previous assignment is
// replaced, matching StorageView.applyItem.
func (idx *Index) Apply(it *meta.Item) {
	if idx.expired[it.ID] {
		return // re-announcement of an already-expired item: ignore
	}
	prev, known := idx.providers[it.ID]
	for _, p := range prev {
		delete(idx.byNode[p], it.ID)
	}
	assigned := make([]int, 0, len(it.StoringNodes))
	for _, sn := range it.StoringNodes {
		if sn >= 0 && sn < idx.n {
			assigned = append(assigned, sn)
			idx.byNode[sn][it.ID] = struct{}{}
		}
	}
	sort.Ints(assigned)
	idx.providers[it.ID] = assigned
	idx.sizes[it.ID] = it.DataSize
	if !known && it.ValidFor > 0 {
		heap.Push(&idx.expiries, expiry{at: it.ExpiresAt(), id: it.ID})
	}
}

// ApplyBlock folds one adopted block's item announcements into the index.
func (idx *Index) ApplyBlock(b *block.Block) {
	for _, it := range b.Items {
		idx.Apply(it)
	}
}

// Rebuild replays a whole chain (genesis first) into a reset index — the
// audit path. An incrementally maintained index must render the same
// Snapshot as a rebuilt one after both expire to the same instant.
func (idx *Index) Rebuild(blocks []*block.Block) {
	idx.providers = make(map[meta.DataID][]int)
	idx.sizes = make(map[meta.DataID]int)
	idx.expiries = idx.expiries[:0]
	idx.expired = make(map[meta.DataID]bool)
	for i := range idx.byNode {
		idx.byNode[i] = make(map[meta.DataID]struct{})
	}
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		idx.ApplyBlock(b)
	}
}

// ExpireUntil drops every assignment whose valid time has passed
// (StorageView semantics: strict `at < now`).
func (idx *Index) ExpireUntil(now time.Duration) {
	for len(idx.expiries) > 0 && idx.expiries[0].at < now {
		e := heap.Pop(&idx.expiries).(expiry)
		for _, p := range idx.providers[e.id] {
			delete(idx.byNode[p], e.id)
		}
		delete(idx.providers, e.id)
		delete(idx.sizes, e.id)
		idx.expired[e.id] = true
	}
}

// Providers returns the current storing nodes of an item in ascending
// order (nil if unknown or expired). Callers must not modify the slice.
func (idx *Index) Providers(id meta.DataID) []int { return idx.providers[id] }

// Size returns the item's advertised content size in bytes (0 if unknown).
func (idx *Index) Size(id meta.DataID) int { return idx.sizes[id] }

// Items returns the IDs currently assigned to node i, sorted.
func (idx *Index) Items(i int) []meta.DataID {
	if i < 0 || i >= idx.n {
		return nil
	}
	out := make([]meta.DataID, 0, len(idx.byNode[i]))
	for id := range idx.byNode[i] {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// Live returns every unexpired item ID, sorted.
func (idx *Index) Live() []meta.DataID {
	out := make([]meta.DataID, 0, len(idx.providers))
	for id := range idx.providers {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// Deficit is one under-replicated item: fewer than Want of its assigned
// providers are considered up.
type Deficit struct {
	ID    meta.DataID
	Alive []int // assigned providers NOT marked dead, ascending
	Want  int
}

// Deficits returns every live item whose not-dead provider count is below
// floor (capped at the number of not-dead roster nodes, so a mostly-dead
// cluster does not report unreachable targets), sorted by ID. dead reports
// whether the churn detector considers a node dead; nil means all alive.
func (idx *Index) Deficits(now time.Duration, floor int, dead func(i int) bool) []Deficit {
	idx.ExpireUntil(now)
	upNodes := idx.n
	if dead != nil {
		upNodes = 0
		for i := 0; i < idx.n; i++ {
			if !dead(i) {
				upNodes++
			}
		}
	}
	want := floor
	if want > upNodes {
		want = upNodes
	}
	up := func(p int) bool { return dead == nil || !dead(p) }
	var out []Deficit
	for id, provs := range idx.providers {
		n := 0
		for _, p := range provs {
			if up(p) {
				n++
			}
		}
		if n >= want {
			continue
		}
		alive := make([]int, 0, n)
		for _, p := range provs {
			if up(p) {
				alive = append(alive, p)
			}
		}
		out = append(out, Deficit{ID: id, Alive: alive, Want: want})
	}
	slices.SortFunc(out, func(a, b Deficit) int { return bytes.Compare(a.ID[:], b.ID[:]) })
	return out
}

// Snapshot renders the observable index state — live assignments plus the
// expired set — in a canonical form. Two indexes that answer every query
// identically render identical snapshots; the differential test compares
// the incremental and rebuilt forms through it.
func (idx *Index) Snapshot() string {
	var b strings.Builder
	for _, id := range idx.Live() {
		fmt.Fprintf(&b, "live %s -> %v (size %d)\n", id, idx.providers[id], idx.sizes[id])
	}
	dead := make([]meta.DataID, 0, len(idx.expired))
	for id := range idx.expired {
		dead = append(dead, id)
	}
	sortIDs(dead)
	for _, id := range dead {
		fmt.Fprintf(&b, "expired %s\n", id)
	}
	return b.String()
}

func sortIDs(ids []meta.DataID) {
	slices.SortFunc(ids, func(a, b meta.DataID) int { return bytes.Compare(a[:], b[:]) })
}
