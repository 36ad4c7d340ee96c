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
//   - Index: the chain's item table, one entry per unexpired on-chain
//     item: its latest on-chain version and its assignment. It answers "is
//     X on chain, in which version", "which nodes store item X", "how many
//     items does node i store" and "which items are under their replica
//     floor". engine.StorageView holds one per chain state, so the engine,
//     the placement input and the repair plane read one table; it is
//     maintained incrementally from adopted blocks, expires items at block
//     timestamps, and can be rebuilt from scratch for auditing (the two must
//     agree bit-for-bit; see the differential test). Its Export restores it
//     whole, because the engine adopts only blocks Admit passes.
//   - Detector: a churn detector turning transport liveness signals
//     (heartbeats, send failures, mined blocks) into alive/suspect/dead
//     verdicts with hysteresis, so a transient partition does not trigger
//     a repair storm.
//   - Limiter: a token bucket over bytes that both ends of every repair
//     fetch pay from, so repair traffic stays strictly below consensus
//     traffic.
//
// Everything here is I/O-free and clock-injected: the Index reads only
// block timestamps, and the Detector and Limiter take the current time from
// their callers, so the same code runs identically under the chaos
// harness's virtual clock and the wall clock.
package repair

import (
	"bytes"
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
// assignment rule: a re-announcement replaces the previous assignment, and
// an item leaves the table at the first block whose timestamp passes its
// valid time (strict `at < timestamp`, as meta.Item.Expired). The rule reads
// block timestamps alone, so the table is a function of the chain: the
// incremental and rebuilt-from-scratch forms are bit-identical, and so are
// two replicas at one height. Admit is the block rule that keeps the table
// a function of Export's one list.
type Index struct {
	items    map[meta.DataID]entry
	count    []int // assignments per node
	expiries expiryHeap
}

// entry is the Index's row for one data ID.
type entry struct {
	item  *meta.Item // latest on-chain version
	nodes []int      // ascending in-roster storing nodes
}

// NewIndex creates an empty index over an n-node roster.
func NewIndex(n int) *Index {
	return &Index{
		items: make(map[meta.DataID]entry),
		count: make([]int, n),
	}
}

// expiry is one pending valid-time expiry: the item leaves the table at
// the first block whose timestamp passes at.
type expiry struct {
	at time.Duration
	id meta.DataID
}

// expiryHeap orders expiries by time, then ID, so they pop in one order
// whatever the heap's layout.
type expiryHeap []expiry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && compareID(h[i].id, h[j].id) < 0
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiry)) }
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

// ApplyBlock folds one adopted block's items into the index: the items
// whose valid time the block's timestamp passes leave first, then the
// block's items are applied in block order. It returns the IDs that left,
// by expiry time then ID. When replaced is non-nil, it hears each item with
// the version that item replaced (nil for the ID's first announcement).
func (idx *Index) ApplyBlock(b *block.Block, replaced func(it, prev *meta.Item)) (expired []meta.DataID) {
	expired = idx.ExpireUntil(b.Timestamp)
	for _, it := range b.Items {
		prev := idx.Apply(it)
		if replaced != nil {
			replaced(it, prev)
		}
	}
	return expired
}

// Rebuild replays a whole chain (genesis first) into a reset index — the
// audit path. An incrementally maintained index renders the same Snapshot
// as one rebuilt from the same blocks.
func (idx *Index) Rebuild(blocks []*block.Block) {
	idx.items = make(map[meta.DataID]entry)
	clear(idx.count)
	idx.expiries = idx.expiries[:0]
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		idx.ApplyBlock(b, nil)
	}
}

// Admit refuses a block stamped at, whose items, checked in block order
// against the index as of its parent, break a rule that keeps the table a
// function of Export: an item already expired at the block's timestamp (it
// would enter a table that holds live items only), a storing node outside
// the roster (Apply drops it, RestoreIndex refuses it), or a version of an
// ID whose Produced or ValidFor differ from the ID's first announcement (the
// expiry heap keeps the first version's expiry; Export writes the latest
// version alone). Honest miners pack unexpired items, place on roster
// nodes and re-announce clones of on-chain items.
func (idx *Index) Admit(at time.Duration, items []*meta.Item) error {
	fresh := make(map[meta.DataID]*meta.Item, len(items)) // first announced in this block
	for _, it := range items {
		if it.Expired(at) {
			return fmt.Errorf("repair: item %s expired before its block", it.ID.Short())
		}
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

// ExpireUntil deletes every item whose valid time has passed at the given
// block timestamp (strict `at < now`) and returns their IDs, by expiry
// time then ID. ApplyBlock calls it before each block's items.
func (idx *Index) ExpireUntil(now time.Duration) (expired []meta.DataID) {
	for len(idx.expiries) > 0 && idx.expiries[0].at < now {
		x := heap.Pop(&idx.expiries).(expiry)
		for _, p := range idx.items[x.id].nodes {
			idx.count[p]--
		}
		delete(idx.items, x.id)
		expired = append(expired, x.id)
	}
	return expired
}

// Item returns the latest on-chain version of an unexpired item (nil if
// the ID is not on chain or expired).
func (idx *Index) Item(id meta.DataID) *meta.Item { return idx.items[id].item }

// IDs returns every unexpired on-chain item ID, sorted.
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

// Count returns how many assignments node i holds.
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

// Deficit is one under-replicated item: fewer than Want of its assigned
// providers are considered up.
type Deficit struct {
	ID    meta.DataID
	Alive []int // assigned providers NOT marked dead, ascending
	Want  int
}

// Deficits returns every item whose not-dead provider count is below floor
// (capped at the number of not-dead roster nodes, so a mostly-dead cluster
// does not report unreachable targets), sorted by ID. dead reports whether
// the churn detector considers a node dead; nil means all alive.
//
// now is ignored: the index expires items at block timestamps only. It
// stays because bench/probes.go passes it, until the benchmark harness is
// next changed (ROADMAP item 4).
func (idx *Index) Deficits(now time.Duration, floor int, dead func(i int) bool) []Deficit {
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
// item, sorted by ID. The assignments, counts and pending expiries follow
// from the items (each carries its storing nodes and valid time), so
// RestoreIndex rebuilds them. The slice is fresh; the items are shared and
// must not be modified.
func (idx *Index) Export() []*meta.Item {
	ids := idx.IDs()
	items := make([]*meta.Item, len(ids))
	for k, id := range ids {
		items[k] = idx.items[id].item
	}
	return items
}

// RestoreIndex rebuilds an n-node index from Export's list as of a block
// stamped at. The list must be strictly ascending by ID and pass Admit at
// that timestamp, so it names no item the block had expired.
func RestoreIndex(n int, at time.Duration, items []*meta.Item) (*Index, error) {
	idx := NewIndex(n)
	if err := idx.Admit(at, items); err != nil {
		return nil, err
	}
	for k, it := range items {
		if k > 0 && compareID(items[k-1].ID, it.ID) >= 0 {
			return nil, fmt.Errorf("repair: item %s out of order", it.ID.Short())
		}
		idx.Apply(it)
	}
	return idx, nil
}

// Snapshot renders the observable index state — assignments and pending
// expiries — in a canonical form. Two indexes that answer every query
// identically render identical snapshots; the differential test compares
// the incremental and rebuilt forms through it.
func (idx *Index) Snapshot() string {
	var b strings.Builder
	for _, id := range idx.IDs() {
		fmt.Fprintf(&b, "live %s -> %v\n", id, idx.items[id].nodes)
	}
	pending := slices.Clone(idx.expiries)
	sort.Sort(pending)
	for _, e := range pending {
		fmt.Fprintf(&b, "expires %s at %v\n", e.id, e.at)
	}
	return b.String()
}

func compareID(a, b meta.DataID) int { return bytes.Compare(a[:], b[:]) }
