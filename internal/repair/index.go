// Package repair is the self-healing data plane: the machinery that
// notices when churn has taken live replicas below their floor and brings
// them back without flooding the network.
//
// The paper's UFL placement (Section IV) decides where replicas live at
// mining time and never looks back — when a storing node churns away, its
// items silently lose a replica until they expire. This package closes
// that loop with three cooperating, purely-deterministic pieces, which the
// live node's probe tick drives (its self-audit fetches what the Index
// assigns to the node and the store lacks):
//
//   - Index: the chain-derived assignment index. It answers "which nodes
//     store item X", "how many items does node i store" and "which items
//     are under their replica floor". engine.StorageView holds one per chain
//     state, so the placement input and the repair plane read one table; it
//     is maintained incrementally from adopted blocks and can be rebuilt
//     from scratch for auditing (the two must agree bit-for-bit; see the
//     differential test).
//   - Detector: a churn detector turning transport liveness signals
//     (heartbeats, send failures, mined blocks) into alive/suspect/dead
//     verdicts with hysteresis, so a transient partition does not trigger
//     a repair storm.
//   - Limiter: a token bucket over bytes that both ends of every repair
//     fetch pay from, so repair traffic stays strictly below consensus
//     traffic.
//
// Everything here is I/O-free and clock-injected: callers pass the current
// time explicitly, so the same code runs identically under the chaos
// harness's virtual clock and the wall clock.
package repair

import (
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

// Index is the chain-derived assignment index, the one implementation of
// the assignment rule: a re-announcement replaces the previous assignment,
// expiry is lazy against the injected clock (strict `at < now`), and an
// expired item stays expired even if a stale re-announcement arrives. The
// rule is what makes the incremental and rebuilt-from-scratch forms
// bit-identical, whenever and however often ExpireUntil ran in between.
type Index struct {
	providers map[meta.DataID][]int // ascending node IDs
	count     []int                 // live assignments per node
	expiries  expiryHeap
	expired   map[meta.DataID]bool
}

// NewIndex creates an empty index over an n-node roster.
func NewIndex(n int) *Index {
	return &Index{
		providers: make(map[meta.DataID][]int),
		count:     make([]int, n),
		expired:   make(map[meta.DataID]bool),
	}
}

// Assignment is one live assignment in exported form.
type Assignment struct {
	ID    meta.DataID
	Nodes []int // ascending
}

// Expiry is one pending valid-time expiry: the item's assignment is
// dropped once the clock passes At.
type Expiry struct {
	At time.Duration
	ID meta.DataID
}

type expiryHeap []Expiry

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].At < h[j].At }
func (h expiryHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)        { *h = append(*h, x.(Expiry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Apply folds one adopted item announcement into the index. A known ID is
// a re-announcement (repair): the previous assignment is
// replaced. Storing nodes outside the roster are dropped.
func (idx *Index) Apply(it *meta.Item) {
	if idx.expired[it.ID] {
		return // re-announcement of an already-expired item: ignore
	}
	prev, known := idx.providers[it.ID]
	for _, p := range prev {
		idx.count[p]--
	}
	assigned := make([]int, 0, len(it.StoringNodes))
	for _, sn := range it.StoringNodes {
		if sn >= 0 && sn < len(idx.count) {
			assigned = append(assigned, sn)
			idx.count[sn]++
		}
	}
	sort.Ints(assigned)
	idx.providers[it.ID] = assigned
	if !known && it.ValidFor > 0 {
		heap.Push(&idx.expiries, Expiry{At: it.ExpiresAt(), ID: it.ID})
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
	clear(idx.count)
	idx.expiries = idx.expiries[:0]
	idx.expired = make(map[meta.DataID]bool)
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		idx.ApplyBlock(b)
	}
}

// Clone returns an independent copy. Provider slices are shared: the index
// replaces them on every change and never writes into one.
func (idx *Index) Clone() *Index {
	return &Index{
		providers: maps.Clone(idx.providers),
		count:     slices.Clone(idx.count),
		expiries:  slices.Clone(idx.expiries),
		expired:   maps.Clone(idx.expired),
	}
}

// ExpireUntil drops every assignment whose valid time has passed (strict
// `at < now`).
func (idx *Index) ExpireUntil(now time.Duration) {
	for len(idx.expiries) > 0 && idx.expiries[0].At < now {
		e := heap.Pop(&idx.expiries).(Expiry)
		for _, p := range idx.providers[e.ID] {
			idx.count[p]--
		}
		delete(idx.providers, e.ID)
		idx.expired[e.ID] = true
	}
}

// Providers returns the current storing nodes of an item in ascending
// order (nil if unknown or expired). Callers must not modify the slice.
func (idx *Index) Providers(id meta.DataID) []int { return idx.providers[id] }

// Count returns how many live assignments node i holds.
func (idx *Index) Count(i int) int { return idx.count[i] }

// Items returns the IDs currently assigned to node i, sorted. It scans
// every live item: its callers run once per repair tick or churn event.
func (idx *Index) Items(i int) []meta.DataID {
	if i < 0 || i >= len(idx.count) {
		return nil
	}
	out := make([]meta.DataID, 0, idx.count[i])
	for id, provs := range idx.providers {
		if slices.Contains(provs, i) {
			out = append(out, id)
		}
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
	n := len(idx.count)
	upNodes := n
	if dead != nil {
		upNodes = 0
		for i := 0; i < n; i++ {
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

// Export returns the index in canonical form: live assignments sorted by
// ID, pending expiries sorted by (At, ID) and expired IDs sorted. The
// slices are fresh; the node lists are the index's own and must not be
// modified.
func (idx *Index) Export() (live []Assignment, pending []Expiry, expired []meta.DataID) {
	for _, id := range idx.Live() {
		live = append(live, Assignment{ID: id, Nodes: idx.providers[id]})
	}
	pending = slices.Clone(idx.expiries)
	slices.SortFunc(pending, func(a, b Expiry) int {
		if c := cmp.Compare(a.At, b.At); c != 0 {
			return c
		}
		return bytes.Compare(a.ID[:], b.ID[:])
	})
	for id := range idx.expired {
		expired = append(expired, id)
	}
	sortIDs(expired)
	return live, pending, expired
}

// RestoreIndex rebuilds an n-node index from Export's three lists. A node
// list is sorted on the way in; a storing node outside the roster is an
// error.
func RestoreIndex(n int, live []Assignment, pending []Expiry, expired []meta.DataID) (*Index, error) {
	idx := NewIndex(n)
	for _, a := range live {
		for _, p := range a.Nodes {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("repair: item %s assigned to node %d of a %d-node roster", a.ID.Short(), p, n)
			}
			idx.count[p]++
		}
		nodes := slices.Clone(a.Nodes)
		sort.Ints(nodes)
		idx.providers[a.ID] = nodes
	}
	idx.expiries = slices.Clone(expiryHeap(pending))
	heap.Init(&idx.expiries)
	for _, id := range expired {
		idx.expired[id] = true
	}
	return idx, nil
}

// Snapshot renders the observable index state — live assignments, pending
// expiries and the expired set — in a canonical form. Two indexes that
// answer every query identically render identical snapshots; the
// differential test compares the incremental and rebuilt forms through it.
func (idx *Index) Snapshot() string {
	live, pending, expired := idx.Export()
	var b strings.Builder
	for _, a := range live {
		fmt.Fprintf(&b, "live %s -> %v\n", a.ID, a.Nodes)
	}
	for _, e := range pending {
		fmt.Fprintf(&b, "expires %s at %v\n", e.ID, e.At)
	}
	for _, id := range expired {
		fmt.Fprintf(&b, "expired %s\n", id)
	}
	return b.String()
}

func sortIDs(ids []meta.DataID) {
	slices.SortFunc(ids, func(a, b meta.DataID) int { return bytes.Compare(a[:], b[:]) })
}
