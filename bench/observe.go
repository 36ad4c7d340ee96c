package main

import (
	"sync"

	"repro/internal/block"
	"repro/internal/livenode"
	"repro/internal/meta"
)

// The tracker observes a cluster from outside. livenode's OnBlock hook does
// not fire for blocks adopted through a suffix or chain sync, so "block B is
// on node i's best chain" is polled: whenever a node's tip changes its chain
// is walked back to the last height already recorded, and the first time
// each block hash shows up at each node is kept. Only at the end of the run
// are those times resolved against the final canonical chain, which drops
// fork losers. Times are nanoseconds in the workload's own clock.

type blockObs struct {
	b     *block.Block
	first int64   // first time on any node's best chain
	seen  []int64 // per node, -1 until seen
	live  []bool  // nodes up at first (nil = all)
}

type itemObs struct {
	id   meta.DataID
	due  int64  // when the open-loop schedule said to publish
	live []bool // nodes up at due time (nil = all)
}

// repObs follows one on-chain placement: the item is replicated once every
// live assigned storing node holds the bytes.
type repObs struct {
	id    meta.DataID
	nodes []int
	have  []bool
	done  int64 // -1 until complete
	// A placement on a block that lost a fork never completes, and asking a
	// disk store costs a stat: an open placement is asked again only after
	// an eighth of its age, which keeps the reading within 12.5 %.
	born, next int64
}

type repKey struct {
	id   meta.DataID
	hash block.Hash
}

type tracker struct {
	mu sync.Mutex
	n  int
	// alive, when set, snapshots which nodes are up; a latency that waits for
	// "every node" waits only for those up when the item or block appeared.
	alive     func() []bool
	lastTip   []block.Hash
	nodeChain [][]block.Hash
	blocks    map[block.Hash]*blockObs
	items     map[meta.DataID]*itemObs
	reps      map[repKey]*repObs
	pending   []*repObs
}

func newTracker(n int) *tracker {
	return &tracker{
		n:         n,
		lastTip:   make([]block.Hash, n),
		nodeChain: make([][]block.Hash, n),
		blocks:    make(map[block.Hash]*blockObs),
		items:     make(map[meta.DataID]*itemObs),
		reps:      make(map[repKey]*repObs),
	}
}

// published registers an item at its due time.
func (t *tracker) published(id meta.DataID, due int64) {
	t.mu.Lock()
	t.items[id] = &itemObs{id: id, due: due, live: t.liveNow()}
	t.mu.Unlock()
}

func (t *tracker) liveNow() []bool {
	if t.alive == nil {
		return nil
	}
	return t.alive()
}

// forget drops what was recorded about node i's chain view: a restarted
// node rebuilds its chain from its own disk and the network.
func (t *tracker) forget(i int) {
	t.mu.Lock()
	t.lastTip[i] = block.Hash{}
	t.nodeChain[i] = nil
	t.mu.Unlock()
}

// pollChain records node i's best chain if its tip moved since last poll.
func (t *tracker) pollChain(i int, nd *livenode.Node, now int64) {
	tip := nd.Tip()
	t.mu.Lock()
	defer t.mu.Unlock()
	if tip.Hash == t.lastTip[i] {
		return
	}
	t.lastTip[i] = tip.Hash
	t.observeChain(i, nd.ChainSnapshot(), now)
}

// observeChain folds one chain view of node i into the record (t.mu held).
func (t *tracker) observeChain(i int, snap []*block.Block, now int64) {
	view := t.nodeChain[i]
	if len(view) > len(snap) {
		view = view[:len(snap)]
	}
	for h := len(snap) - 1; h >= 1; h-- {
		b := snap[h]
		if h < len(view) && view[h] == b.Hash {
			break
		}
		bo := t.blocks[b.Hash]
		if bo == nil {
			bo = &blockObs{b: b, first: now, seen: make([]int64, t.n), live: t.liveNow()}
			for k := range bo.seen {
				bo.seen[k] = -1
			}
			t.blocks[b.Hash] = bo
			for _, it := range b.Items {
				if len(it.StoringNodes) == 0 {
					continue
				}
				r := &repObs{id: it.ID, nodes: it.StoringNodes, have: make([]bool, len(it.StoringNodes)), done: -1, born: now}
				t.reps[repKey{it.ID, b.Hash}] = r
				t.pending = append(t.pending, r)
			}
		}
		if bo.seen[i] < 0 {
			bo.seen[i] = now
		}
	}
	view = view[:0]
	for _, b := range snap {
		view = append(view, b.Hash)
	}
	t.nodeChain[i] = view
}

// holder answers for one node and item: is the node up, and does it hold
// the bytes.
type holder func(node int, id meta.DataID) (up, has bool)

// holderOf adapts a node lookup that returns nil for a node that is down.
func holderOf(node func(i int) *livenode.Node) holder {
	return func(i int, id meta.DataID) (bool, bool) {
		nd := node(i)
		if nd == nil {
			return false, false
		}
		return true, nd.HasData(id)
	}
}

// pollReplicas checks the outstanding placements against the nodes' stores.
// A node that is down is not waited for.
func (t *tracker) pollReplicas(holds holder, now int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := t.pending[:0]
	for _, r := range t.pending {
		if now < r.next {
			keep = append(keep, r)
			continue
		}
		complete := true
		for k, idx := range r.nodes {
			if r.have[k] {
				continue
			}
			up, has := holds(idx, r.id)
			if has {
				r.have[k] = true
			} else if up {
				complete = false
			}
		}
		if complete {
			r.done = now
		} else {
			r.next = now + (now-r.born)/8
			keep = append(keep, r)
		}
	}
	t.pending = keep
}

// pollReplicasNow asks about every open placement regardless of its
// back-off: the last look before the run is resolved.
func (t *tracker) pollReplicasNow(holds holder, now int64) {
	t.mu.Lock()
	for _, r := range t.pending {
		r.next = 0
	}
	t.mu.Unlock()
	t.pollReplicas(holds, now)
}

// resolved is what the observations say once the canonical chain is known.
// Latencies are in milliseconds of the workload's clock.
type resolved struct {
	committed    int       // tracked items on the canonical chain
	chainFirst   []float64 // due → first node has the item's block
	chainAll     []float64 // due → every node live at due time has it
	replica      []float64 // due → every live assigned storing node holds the bytes
	blockProp    []float64 // block first anywhere → on every node
	blockItems   []float64 // items per canonical block
	notCanonical int       // tracked items missing from the chain or from a live node
	notReplica   int       // committed items whose placement never completed
}

// resolve matches the observations against the final canonical chain.
func (t *tracker) resolve(canonical []*block.Block) resolved {
	t.mu.Lock()
	defer t.mu.Unlock()
	var r resolved
	const ms = 1e6
	counted := make(map[meta.DataID]bool, len(t.items))
	for _, b := range canonical[1:] {
		bo := t.blocks[b.Hash]
		r.blockItems = append(r.blockItems, float64(len(b.Items)))
		if bo == nil {
			continue
		}
		last, everywhere := bo.first, true
		for k, at := range bo.seen {
			if bo.live != nil && !bo.live[k] {
				continue
			}
			if at < 0 {
				everywhere = false
			} else if at > last {
				last = at
			}
		}
		if everywhere {
			r.blockProp = append(r.blockProp, float64(last-bo.first)/ms)
		}
		for _, it := range b.Items {
			io := t.items[it.ID]
			if io == nil || counted[it.ID] {
				continue // not ours, or a later repair re-announcement
			}
			counted[it.ID] = true
			all, ok := bo.first, true
			for k, at := range bo.seen {
				if io.live != nil && !io.live[k] {
					continue
				}
				if at < 0 {
					ok = false
				} else if at > all {
					all = at
				}
			}
			if !ok {
				r.notCanonical++
				continue
			}
			r.committed++
			r.chainFirst = append(r.chainFirst, float64(bo.first-io.due)/ms)
			r.chainAll = append(r.chainAll, float64(all-io.due)/ms)
			if rep := t.reps[repKey{it.ID, b.Hash}]; rep != nil && rep.done >= 0 {
				r.replica = append(r.replica, float64(rep.done-io.due)/ms)
			} else {
				r.notReplica++
			}
		}
	}
	r.notCanonical += len(t.items) - len(counted)
	return r
}

// publication is what it takes to publish an item again.
type publication struct {
	producer int
	content  []byte
	typ      string
}

// onNoChain reports whether the item is on no live node's chain. Some time
// after the load that means the program will not pack it soon, for one of two
// reasons: a node that adopts a block packing an item removes it from its
// pool and does not put it back when that block loses a fork, so an item can
// vanish from every pool; or the metadata relay (which does not retry) left
// it in its producer's pool alone, where it waits for that one node to win a
// block. A harness client then publishes the bytes again, as a user whose
// item never showed up would, which also relays it afresh; the item's
// latency keeps running from its first due time.
func onNoChain(nodes []*livenode.Node, id meta.DataID) bool {
	for _, nd := range nodes {
		if nd != nil && nd.HasItemOnChain(id) {
			return false
		}
	}
	return true
}
