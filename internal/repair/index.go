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
//   - Index: the chain's item table, one entry per data ID ever on chain:
//     the latest on-chain version, its assignment and whether it expired.
//     It answers "is X on chain, in which version", "which nodes store
//     item X", "how many items does node i store" and "which items are
//     under their replica floor". engine.StorageView holds one per chain
//     state, so the engine, the placement input and the repair plane read
//     one table; it is maintained incrementally from adopted blocks and can
//     be rebuilt from scratch for auditing (the two must agree bit-for-bit;
//     see the differential test). Its Export restores it whole, because
//     the engine adopts only blocks Admit passes.
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

// Index is the chain's item table and the one implementation of the
// assignment rule: a re-announcement replaces the previous assignment,
// expiry is lazy against the injected clock (strict `at < now`), and an
// expired item stays expired even if a stale re-announcement arrives (its
// entry still records that latest version). The rule is what makes the
// incremental and rebuilt-from-scratch forms bit-identical, whenever and
// however often ExpireUntil ran in between. Admit is the block rule that
// keeps the table a function of Export's two lists.
type Index struct {
	items    map[meta.DataID]entry
	count    []int // live assignments per node
	expiries expiryHeap
}

// entry is the Index's row for one data ID.
type entry struct {
	item    *meta.Item // latest on-chain version
	nodes   []int      // ascending in-roster storing nodes; nil once expired
	expired bool
}

// NewIndex creates an empty index over an n-node roster.
func NewIndex(n int) *Index {
	return &Index{
		items: make(map[meta.DataID]entry),
		count: make([]int, n),
	}
}

// expiry is one pending valid-time expiry: the item's assignment is
// dropped once the clock passes at.
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

// Apply folds one adopted item announcement into the index and returns the
// version it replaced (nil for the ID's first announcement). A known ID is
// a re-announcement (repair): the previous assignment is replaced. Storing
// nodes outside the roster are dropped.
func (idx *Index) Apply(it *meta.Item) (prev *meta.Item) {
	e, known := idx.items[it.ID]
	prev, e.item = e.item, it
	if e.expired {
		idx.items[it.ID] = e // a re-announcement of an expired item assigns nothing
		return prev
	}
	for _, p := range e.nodes {
		idx.count[p]--
	}
	e.nodes = make([]int, 0, len(it.StoringNodes))
	for _, sn := range it.StoringNodes {
		if sn >= 0 && sn < len(idx.count) {
			e.nodes = append(e.nodes, sn)
			idx.count[sn]++
		}
	}
	sort.Ints(e.nodes)
	idx.items[it.ID] = e
	if !known && it.ValidFor > 0 {
		heap.Push(&idx.expiries, expiry{at: it.ExpiresAt(), id: it.ID})
	}
	return prev
}

// Rebuild replays a whole chain (genesis first) into a reset index — the
// audit path. An incrementally maintained index must render the same
// Snapshot as a rebuilt one after both expire to the same instant.
func (idx *Index) Rebuild(blocks []*block.Block) {
	idx.items = make(map[meta.DataID]entry)
	clear(idx.count)
	idx.expiries = idx.expiries[:0]
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		for _, it := range b.Items {
			idx.Apply(it)
		}
	}
}

// Admit refuses a block whose items, checked in block order against the
// index as of its parent, Export could not carry: a storing node outside
// the roster (Apply drops it, RestoreIndex refuses it), or a version of an
// ID whose Produced or ValidFor differ from the ID's first announcement (the
// expiry heap keeps the first version's expiry; Export writes the latest
// version alone). Honest miners place on roster nodes and re-announce
// clones of on-chain items.
func (idx *Index) Admit(items []*meta.Item) error {
	fresh := make(map[meta.DataID]*meta.Item, len(items)) // first announced in this block
	for _, it := range items {
		for _, p := range it.StoringNodes {
			if p < 0 || p >= len(idx.count) {
				return fmt.Errorf("repair: item %s assigned to node %d of a %d-node roster", it.ID.Short(), p, len(idx.count))
			}
		}
		first := idx.items[it.ID].item
		if first == nil {
			first = fresh[it.ID]
		}
		if first == nil {
			fresh[it.ID] = it
		} else if it.Produced != first.Produced || it.ValidFor != first.ValidFor {
			return fmt.Errorf("repair: item %s re-announced with another valid time", it.ID.Short())
		}
	}
	return nil
}

// Clone returns an independent copy. Items and node slices are shared: the
// index replaces them on every change and never writes into one.
func (idx *Index) Clone() *Index {
	return &Index{
		items:    maps.Clone(idx.items),
		count:    slices.Clone(idx.count),
		expiries: slices.Clone(idx.expiries),
	}
}

// ExpireUntil drops every assignment whose valid time has passed (strict
// `at < now`).
func (idx *Index) ExpireUntil(now time.Duration) {
	for len(idx.expiries) > 0 && idx.expiries[0].at < now {
		x := heap.Pop(&idx.expiries).(expiry)
		e := idx.items[x.id]
		for _, p := range e.nodes {
			idx.count[p]--
		}
		e.nodes, e.expired = nil, true
		idx.items[x.id] = e
	}
}

// Item returns the latest on-chain version of an item, expired or not (nil
// if the ID never was on chain).
func (idx *Index) Item(id meta.DataID) *meta.Item { return idx.items[id].item }

// IDs returns every item ID that has been on chain, expired ones included,
// sorted.
func (idx *Index) IDs() []meta.DataID {
	ids := make([]meta.DataID, 0, len(idx.items))
	for id := range idx.items {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, compareID)
	return ids
}

// Providers returns the current storing nodes of an item in ascending
// order (nil if unknown or expired). Callers must not modify the slice.
func (idx *Index) Providers(id meta.DataID) []int { return idx.items[id].nodes }

// Count returns how many live assignments node i holds.
func (idx *Index) Count(i int) int { return idx.count[i] }

// Items returns the IDs currently assigned to node i, sorted. It scans
// every item: its callers run once per repair tick or churn event.
func (idx *Index) Items(i int) []meta.DataID {
	if i < 0 || i >= len(idx.count) {
		return nil
	}
	out := make([]meta.DataID, 0, idx.count[i])
	for id, e := range idx.items {
		if slices.Contains(e.nodes, i) {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, compareID)
	return out
}

// Live returns every unexpired item ID, sorted.
func (idx *Index) Live() []meta.DataID {
	var out []meta.DataID
	for id, e := range idx.items {
		if !e.expired {
			out = append(out, id)
		}
	}
	slices.SortFunc(out, compareID)
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
	for id, e := range idx.items {
		if e.expired {
			continue
		}
		n := 0
		for _, p := range e.nodes {
			if up(p) {
				n++
			}
		}
		if n >= want {
			continue
		}
		alive := make([]int, 0, n)
		for _, p := range e.nodes {
			if up(p) {
				alive = append(alive, p)
			}
		}
		out = append(out, Deficit{ID: id, Alive: alive, Want: want})
	}
	slices.SortFunc(out, func(a, b Deficit) int { return compareID(a.ID, b.ID) })
	return out
}

// Export returns the index in canonical form: the latest version of every
// item, sorted by ID, and the IDs of those that expired, sorted. The
// assignments, counts and pending expiries follow from the items (each
// carries its storing nodes and valid time), so RestoreIndex rebuilds
// them. The slices are fresh; the items are shared and must not be
// modified.
func (idx *Index) Export() (items []*meta.Item, expired []meta.DataID) {
	ids := idx.IDs()
	items = make([]*meta.Item, len(ids))
	for k, id := range ids {
		e := idx.items[id]
		items[k] = e.item
		if e.expired {
			expired = append(expired, id)
		}
	}
	return items, expired
}

// RestoreIndex rebuilds an n-node index from Export's two lists, applying
// every item not listed as expired. Both lists must be strictly ascending
// by ID, every expired ID must be a listed item, and the items must pass
// Admit.
func RestoreIndex(n int, items []*meta.Item, expired []meta.DataID) (*Index, error) {
	idx := NewIndex(n)
	if err := idx.Admit(items); err != nil {
		return nil, err
	}
	for k, it := range items {
		if k > 0 && compareID(items[k-1].ID, it.ID) >= 0 {
			return nil, fmt.Errorf("repair: item %s out of order", it.ID.Short())
		}
		if len(expired) > 0 && expired[0] == it.ID {
			expired = expired[1:]
			idx.items[it.ID] = entry{item: it, expired: true}
			continue
		}
		idx.Apply(it)
	}
	if len(expired) > 0 {
		return nil, fmt.Errorf("repair: expired ID %s is not a listed item, or out of order", expired[0].Short())
	}
	return idx, nil
}

// Snapshot renders the observable index state — live assignments, pending
// expiries and the expired set — in a canonical form. Two indexes that
// answer every query identically render identical snapshots; the
// differential test compares the incremental and rebuilt forms through it.
func (idx *Index) Snapshot() string {
	var b strings.Builder
	ids := idx.IDs()
	for _, id := range ids {
		if e := idx.items[id]; !e.expired {
			fmt.Fprintf(&b, "live %s -> %v\n", id, e.nodes)
		}
	}
	pending := slices.Clone(idx.expiries)
	slices.SortFunc(pending, func(a, b expiry) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return compareID(a.id, b.id)
	})
	for _, e := range pending {
		fmt.Fprintf(&b, "expires %s at %v\n", e.id, e.at)
	}
	for _, id := range ids {
		if idx.items[id].expired {
			fmt.Fprintf(&b, "expired %s\n", id)
		}
	}
	return b.String()
}

func compareID(a, b meta.DataID) int { return bytes.Compare(a[:], b[:]) }
