package engine

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
)

func viewBlock(t *testing.T, prev *block.Block, miner *identity.Identity, items []*meta.Item, storing, recent []int) *block.Block {
	t.Helper()
	bld := block.NewBuilder(prev, miner.Address(), prev.Timestamp+time.Minute, 60, 1)
	for _, it := range items {
		bld.AddItem(it)
	}
	return bld.SetStoringNodes(storing).SetRecentAssignees(recent).Seal()
}

func TestStorageViewInitial(t *testing.T) {
	v := NewStorageView(3, 250, 30)
	for i := 0; i < 3; i++ {
		if got := v.Used(i); got != 0 {
			t.Fatalf("Used(%d) = %d at height 0, want 0 (no blocks yet)", i, got)
		}
	}
	states := v.NodeStates()
	if len(states) != 3 {
		t.Fatalf("states = %+v", states)
	}
	for i, st := range states {
		if st.Capacity != 250 || st.MobilityRange != 30 {
			t.Fatalf("states[%d] = %+v, want capacity 250 and mobility range 30", i, st)
		}
	}
}

func TestStorageViewCountsAssignments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	miner := identity.GenerateSeeded(rng)
	producer := identity.GenerateSeeded(rng)
	g := block.Genesis(1)
	v := NewStorageView(4, 250, 30)

	it := &meta.Item{ID: meta.HashData([]byte("x")), Type: "T/x", DataSize: 1}
	it.Sign(producer)
	it.StoringNodes = []int{0, 1}

	b1 := viewBlock(t, g, miner, []*meta.Item{it}, []int{2}, []int{3})
	v.ApplyBlock(b1, nil)

	// Node 0: 1 data + recent min(1, height=1)=1 -> 2.
	if got := v.Used(0); got != 2 {
		t.Fatalf("Used(0) = %d, want 2", got)
	}
	// Node 2: 1 block body + 1 recent -> 2.
	if got := v.Used(2); got != 2 {
		t.Fatalf("Used(2) = %d, want 2", got)
	}
	// Node 3: recent assignee: depth 2 but height 1 -> recent 1 -> 1.
	if got := v.Used(3); got != 1 {
		t.Fatalf("Used(3) = %d, want 1", got)
	}
	if v.RecentDepth(3) != 2 {
		t.Fatalf("RecentDepth(3) = %d, want 2", v.RecentDepth(3))
	}
}

func TestStorageViewExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	miner := identity.GenerateSeeded(rng)
	producer := identity.GenerateSeeded(rng)
	g := block.Genesis(1)
	v := NewStorageView(2, 250, 30)

	it := &meta.Item{
		ID: meta.HashData([]byte("y")), Type: "T/y",
		Produced: time.Minute, ValidFor: 10 * time.Minute, DataSize: 1,
	}
	it.Sign(producer)
	it.StoringNodes = []int{0}

	// Blocks a minute apart: the item expires at 11 min, so the block
	// stamped 11 min keeps it (strict) and the one stamped 12 min drops it.
	prev := g
	for ts := time.Minute; ts <= 12*time.Minute; ts += time.Minute {
		var items []*meta.Item
		if ts == time.Minute {
			items = []*meta.Item{it}
		}
		b := viewBlock(t, prev, miner, items, nil, nil)
		expired := v.ApplyBlock(b, nil)
		want := 2 // data + recent
		if ts == 12*time.Minute {
			want = 1 // recent only
			if len(expired) != 1 || expired[0] != it.ID {
				t.Fatalf("block at %v expired %v, want the item", ts, expired)
			}
		} else if expired != nil {
			t.Fatalf("block at %v expired %v before the item's valid time passed", ts, expired)
		}
		if got := v.Used(0); got != want {
			t.Fatalf("Used after the block at %v = %d, want %d", ts, got, want)
		}
		prev = b
	}
}

func TestStorageViewRecentCappedByHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	miner := identity.GenerateSeeded(rng)
	g := block.Genesis(1)
	v := NewStorageView(2, 250, 30)

	// Node 0 accumulates recent depth 4 over 3 blocks.
	prev := g
	for i := 0; i < 3; i++ {
		b := viewBlock(t, prev, miner, nil, nil, []int{0})
		v.ApplyBlock(b, nil)
		prev = b
	}
	if v.RecentDepth(0) != 4 {
		t.Fatalf("depth = %d, want 4", v.RecentDepth(0))
	}
	// Height is 3, so the FIFO holds at most 3.
	if got := v.Used(0); got != 3 {
		t.Fatalf("Used = %d, want 3 (capped by height)", got)
	}
}

func TestStorageViewRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	miner := identity.GenerateSeeded(rng)
	g := block.Genesis(1)
	v := NewStorageView(2, 250, 30)

	b1 := viewBlock(t, g, miner, nil, []int{0}, []int{1})
	v.ApplyBlock(b1, nil)
	v.Rebuild([]*block.Block{g, b1})
	if got := v.Used(0); got != 2 { // block body + recent
		t.Fatalf("Used(0) after rebuild = %d, want 2", got)
	}
	if v.RecentDepth(1) != 2 {
		t.Fatalf("RecentDepth(1) after rebuild = %d, want 2", v.RecentDepth(1))
	}
	// Rebuild with empty chain resets.
	v.Rebuild([]*block.Block{g})
	if got := v.Used(0); got != 0 {
		t.Fatalf("Used(0) after reset = %d, want 0", got)
	}
}

// TestNodeStatesIntoHotPathAllocs is the mining hot path's alloc gate: refilling
// a warm buffer must not allocate, and the result must match a fresh
// NodeStates call. Mine reuses one such buffer per round, which keeps
// per-round garbage flat as clusters scale to hundreds of nodes.
func TestNodeStatesIntoHotPathAllocs(t *testing.T) {
	v := NewStorageView(256, 250, 30)
	buf := v.NodeStatesInto(nil)
	if got := testing.AllocsPerRun(1000, func() {
		buf = v.NodeStatesInto(buf)
	}); got != 0 {
		t.Fatalf("NodeStatesInto with warm buffer allocates %.2f/op, want 0", got)
	}
	fresh := v.NodeStates()
	if len(fresh) != len(buf) {
		t.Fatalf("lengths differ: %d vs %d", len(fresh), len(buf))
	}
	for i := range fresh {
		if fresh[i] != buf[i] {
			t.Fatalf("state %d differs: %+v vs %+v", i, fresh[i], buf[i])
		}
	}
}
