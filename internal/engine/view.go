package engine

import (
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/repair"
)

// StorageView is a node's chain-derived picture of every node's storage
// usage. Because all assignments (data items, block bodies, recent-block
// allowances) are recorded in blocks, every node independently derives the
// same view — this is the "current network situations (storage used of
// each node)" input the paper feeds into the placement problem.
//
// used(i) = live data assignments + block-body assignments
//   - min(recent depth, chain height): the recent FIFO holds at most
//     depth blocks and cannot hold more blocks than exist.
//
// Data assignments live in a repair.Index, the engine's one per-item table
// and the one implementation of the assignment rule: a re-announcement
// (repair) replaces the old assignment instead of double counting, and
// assignments expire with their item's valid time, lazily against the
// simulation clock. The engine's on-chain lookups (OnChain, LiveItem) and
// the repair plane read the same index (Index), so placement, pooling and
// repair agree on what is on chain and who stores it by construction.
type StorageView struct {
	capacity    int
	items       *repair.Index
	blockBodies []int
	recentDepth []int
	height      uint64
	mobility    float64 // every node's range(i) of eq. 2
}

// NewStorageView creates the view for n nodes of the given capacity and
// mobility range. Every node's recent-cache allowance starts at 1 (every
// node caches at least the last block) and grows by one per recent-block
// assignment.
func NewStorageView(n, capacity int, mobilityRange float64) *StorageView {
	v := &StorageView{
		capacity:    capacity,
		items:       repair.NewIndex(n),
		blockBodies: make([]int, n),
		recentDepth: make([]int, n),
		mobility:    mobilityRange,
	}
	for i := range v.recentDepth {
		v.recentDepth[i] = 1
	}
	return v
}

// ApplyBlock folds one adopted block's assignments into the view. When
// replaced is non-nil, it hears each item of b in block order with the
// version that item replaced (nil for the ID's first announcement).
func (v *StorageView) ApplyBlock(b *block.Block, replaced func(it, prev *meta.Item)) {
	for _, it := range b.Items {
		prev := v.items.Apply(it)
		if replaced != nil {
			replaced(it, prev)
		}
	}
	for _, n := range b.StoringNodes {
		if n >= 0 && n < len(v.blockBodies) {
			v.blockBodies[n]++
		}
	}
	for _, n := range b.RecentAssignees {
		if n >= 0 && n < len(v.recentDepth) {
			v.recentDepth[n]++
		}
	}
	if b.Index > v.height {
		v.height = b.Index
	}
}

// Clone returns an independent deep copy of the view. Snapshots for
// incremental fork adoption (AdoptSuffix) replay candidate suffixes on a
// clone so a rejected candidate leaves the live view untouched.
func (v *StorageView) Clone() *StorageView {
	cp := *v
	cp.items = v.items.Clone()
	cp.blockBodies = slices.Clone(v.blockBodies)
	cp.recentDepth = slices.Clone(v.recentDepth)
	return &cp
}

// Rebuild replays a whole chain into a fresh view (fork adoption).
func (v *StorageView) Rebuild(blocks []*block.Block) {
	for i := range v.blockBodies {
		v.blockBodies[i] = 0
		v.recentDepth[i] = 1
	}
	v.height = 0
	v.items.Rebuild(nil)
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		v.ApplyBlock(b, nil)
	}
}

// Index returns the view's assignment index with every assignment whose
// valid time has passed at now dropped. It is the view's own: callers
// read it (Providers, Items, Deficits) and never Apply to it.
func (v *StorageView) Index(now time.Duration) *repair.Index {
	v.items.ExpireUntil(now)
	return v.items
}

// Assignment returns the current storing nodes of an item in ascending
// order (nil if unknown or expired). The returned slice must not be
// modified.
func (v *StorageView) Assignment(id meta.DataID) []int { return v.items.Providers(id) }

// Used returns node i's storage usage at the given time.
func (v *StorageView) Used(i int, now time.Duration) int {
	v.items.ExpireUntil(now)
	recent := v.recentDepth[i]
	if h := int(v.height); recent > h && h >= 0 {
		if h == 0 {
			recent = 0
		} else {
			recent = h
		}
	}
	return v.items.Count(i) + v.blockBodies[i] + recent
}

// NodeStates builds the planner input for the current moment.
func (v *StorageView) NodeStates(now time.Duration) []alloc.NodeState {
	return v.NodeStatesInto(nil, now)
}

// NodeStatesInto is NodeStates writing into dst (grown as needed), so
// per-round callers can reuse one buffer instead of allocating a fresh
// slice every mining round.
func (v *StorageView) NodeStatesInto(dst []alloc.NodeState, now time.Duration) []alloc.NodeState {
	if cap(dst) < len(v.blockBodies) {
		dst = make([]alloc.NodeState, len(v.blockBodies))
	}
	dst = dst[:len(v.blockBodies)]
	for i := range dst {
		dst[i] = alloc.NodeState{
			Used:          v.Used(i, now),
			Capacity:      v.capacity,
			MobilityRange: v.mobility,
		}
	}
	return dst
}

// RecentDepth returns node i's recent-cache allowance.
func (v *StorageView) RecentDepth(i int) int { return v.recentDepth[i] }
