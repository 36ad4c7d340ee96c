package repair_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/repair"
)

// Differential test (DESIGN.md §11): the provider index maintained
// incrementally from engine OnAppend feeds must be bit-identical — same
// Snapshot() — to one rebuilt from scratch off the same chain, across
// fresh announcements, migrations/re-announcements, item expiry, suffix
// catch-up sync and fork adoption (both AdoptSuffix).
// It also cross-checks provider sets against the engine's own StorageView,
// the consensus-side source of truth for live assignments.

// diffCluster is a minimal multi-engine harness over one virtual clock
// (the engine package's test harness is not exported).
type diffCluster struct {
	idents   []*identity.Identity
	accounts []identity.Address
	engines  []*engine.Engine
	now      time.Duration
}

// newDiffCluster builds n engines; engine 0 maintains idx0 from its
// callbacks, exactly as the live node does.
func newDiffCluster(t *testing.T, n int, idx0 *repair.Index) *diffCluster {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := &diffCluster{
		idents:   make([]*identity.Identity, n),
		accounts: make([]identity.Address, n),
		engines:  make([]*engine.Engine, n),
	}
	for i := 0; i < n; i++ {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
	}
	c.engines[0] = c.newEngine(t, 0, idx0)
	for i := 1; i < n; i++ {
		c.engines[i] = c.newEngine(t, i, repair.NewIndex(n))
	}
	return c
}

// newEngine builds node i's engine with idx fed the way livenode feeds its
// provider index: every connected block's items applied, a fork's
// disconnected blocks undone by a rebuild of the chain below the fork point.
func (c *diffCluster) newEngine(t *testing.T, i int, idx *repair.Index) *engine.Engine {
	t.Helper()
	var e *engine.Engine
	topo := netsim.NewTopology(make([]geo.Point, len(c.accounts)), 1, nil)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	e, err := engine.New(engine.Config{
		Accounts:           c.accounts,
		Self:               i,
		PoS:                pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		Genesis:            block.Genesis(42),
		Now:                func() time.Duration { return c.now },
		ValidateClaims:     true,
		Topology:           func() *netsim.Topology { return topo },
		Planner:            alloc.NewPlanner(1),
		BlockPlanner:       blockPlanner,
		StorageCapacity:    250,
		InitialRecentDepth: 1,
		MigrateMaxPerBlock: 2,
		OnAppend: func(ev engine.AppendEvent) {
			for _, ie := range ev.Items {
				idx.Apply(ie.Item)
			}
		},
		OnDisconnect: func(gone []*block.Block) {
			idx.Rebuild(e.Chain().Range(1, gone[0].Index-1))
		},
	})
	if err != nil {
		t.Fatalf("engine %d: %v", i, err)
	}
	return e
}

// mineNext plays one round across the given engines (all receive the block).
func (c *diffCluster) mineNext(t *testing.T, members []int) *block.Block {
	t.Helper()
	winner := -1
	var best engine.Round
	for _, i := range members {
		r, ok := c.engines[i].NextRound()
		if !ok {
			continue
		}
		if winner < 0 || r.FireAt() < best.FireAt() {
			winner, best = i, r
		}
	}
	if winner < 0 {
		t.Fatal("no engine can mine")
	}
	if best.FireAt() > c.now {
		c.now = best.FireAt()
	}
	res, err := c.engines[winner].Mine(best)
	if err != nil {
		t.Fatalf("engine %d mine: %v", winner, err)
	}
	if res == nil {
		t.Fatal("round moved on unexpectedly")
	}
	for _, i := range members {
		if i == winner {
			continue
		}
		if _, err := c.engines[i].ReceiveBlock(res.Block); err != nil {
			t.Fatalf("engine %d receive: %v", i, err)
		}
	}
	return res.Block
}

func (c *diffCluster) item(producer int, content string, validFor time.Duration) *meta.Item {
	it := &meta.Item{
		ID:           meta.HashData([]byte(content)),
		Type:         "Test/Diff",
		Produced:     c.now,
		ValidFor:     validFor,
		LocationName: "Lab",
		DataSize:     len(content),
	}
	it.Sign(c.idents[producer])
	return it
}

// checkDifferential asserts the three-way agreement at time now:
// incremental index == scratch rebuild of the chain, and provider sets ==
// the engine StorageView's live assignments.
func checkDifferential(t *testing.T, phase string, e *engine.Engine, inc *repair.Index, now time.Duration) {
	t.Helper()
	n := len(e.View().NodeStates(now)) // also forces the view's lazy expiry
	scratch := repair.NewIndex(n)
	scratch.Rebuild(e.Chain().Blocks())
	inc.ExpireUntil(now)
	scratch.ExpireUntil(now)
	if got, want := inc.Snapshot(), scratch.Snapshot(); got != want {
		t.Fatalf("%s: incremental index diverged from scratch rebuild\nincremental:\n%s\nrebuild:\n%s", phase, got, want)
	}
	for _, id := range inc.Live() {
		va := append([]int(nil), e.View().Assignment(id)...)
		sort.Ints(va)
		ia := inc.Providers(id)
		if fmt.Sprint(va) != fmt.Sprint(ia) {
			t.Fatalf("%s: item %s providers %v != storage-view assignment %v", phase, id, ia, va)
		}
	}
}

func TestIndexDifferentialAcrossForkSyncExpiry(t *testing.T) {
	const n = 4
	inc := repair.NewIndex(n)
	c := newDiffCluster(t, n, inc)
	all := []int{0, 1, 2, 3}

	// Phase 1: fresh announcements, mixed lifetimes.
	for k := 0; k < 6; k++ {
		validFor := time.Duration(0)
		if k%2 == 0 {
			validFor = 150 * time.Second // expires mid-test
		}
		it := c.item(k%n, fmt.Sprintf("item-%d", k), validFor)
		for _, i := range all {
			c.engines[i].AddMetadata(it)
		}
	}
	for k := 0; k < 3; k++ {
		c.mineNext(t, all)
	}
	checkDifferential(t, "announce", c.engines[0], inc, c.now)

	// Phase 2: expiry. Advance past the short-lived items' valid time and
	// keep mining (migration re-announcements of expired items must be
	// ignored identically on both paths).
	c.now += 300 * time.Second
	c.mineNext(t, all)
	checkDifferential(t, "expiry", c.engines[0], inc, c.now)

	// Phase 3: suffix catch-up sync. A fresh engine receives the first part
	// of the chain block by block, then adopts the rest via AdoptSuffix; both
	// feed its index through the same OnAppend events.
	chain := c.engines[0].Chain().Blocks()
	lateIdx := repair.NewIndex(n)
	late := c.newEngine(t, 1, lateIdx)
	split := len(chain) - 2
	for _, b := range chain[1:split] {
		if _, err := late.ReceiveBlock(b); err != nil {
			t.Fatalf("late replay: %v", err)
		}
	}
	if _, ok := late.AdoptSuffix(chain[split:]); !ok {
		t.Fatal("late engine rejected catch-up suffix")
	}
	checkDifferential(t, "suffix-sync", late, lateIdx, c.now)

	// Phase 4: fork adoption. A disjoint group mines a longer chain from
	// the same genesis; engine 0 adopts it as one suffix from genesis. Its
	// index is cut back by OnDisconnect and extended by the suffix's
	// OnAppend events, and must match both a scratch rebuild and an index
	// that followed the winning chain block by block.
	fIdx := repair.NewIndex(n)
	f := newDiffCluster(t, n, fIdx)
	f.now = c.now
	it := f.item(0, "fork-item", 0)
	for _, i := range all {
		f.engines[i].AddMetadata(it)
	}
	for len(f.engines[0].Chain().Blocks()) <= len(c.engines[0].Chain().Blocks()) {
		f.mineNext(t, all)
	}
	c.now = f.now
	if _, ok := c.engines[0].AdoptSuffix(f.engines[0].Chain().Blocks()[1:]); !ok {
		t.Fatal("engine 0 refused the longer fork")
	}
	checkDifferential(t, "fork-adopt", c.engines[0], inc, c.now)
	if got, want := inc.Snapshot(), fIdx.Snapshot(); got != want {
		t.Fatalf("fork adoption diverged from the winner's incremental index\nadopted:\n%s\nincremental:\n%s", got, want)
	}
}
