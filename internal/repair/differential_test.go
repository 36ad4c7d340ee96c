package repair_test

import (
	"fmt"
	"math/rand"
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

// Differential test (DESIGN.md §11): the assignment index an engine keeps in
// its StorageView — maintained incrementally block by block, swapped in whole
// from a cloned snapshot on a fork or a catch-up, restored from an exported
// snapshot on a bootstrap — must render a Snapshot() bit-identical to an
// index rebuilt from scratch off the same chain, across fresh announcements,
// re-announcements (repair), item expiry, suffix catch-up and fork
// adoption.

// diffCluster is a minimal multi-engine harness over one virtual clock
// (the engine package's test harness is not exported).
type diffCluster struct {
	idents   []*identity.Identity
	accounts []identity.Address
	engines  []*engine.Engine
	now      time.Duration
	// dead is the node every engine's Liveness reports dead (-1: none).
	dead int
}

func newDiffCluster(t *testing.T, n int) *diffCluster {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	c := &diffCluster{
		idents:   make([]*identity.Identity, n),
		accounts: make([]identity.Address, n),
		engines:  make([]*engine.Engine, n),
		dead:     -1,
	}
	for i := 0; i < n; i++ {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
	}
	for i := range c.engines {
		c.engines[i] = c.newEngine(t, i)
	}
	return c
}

// newEngine builds node i's engine. Snapshots every two blocks make fork
// adoption start from a cloned snapshot state, not from genesis. Liveness
// turns repair packing on: while c.dead is set, a winner re-announces the
// items that node provides.
func (c *diffCluster) newEngine(t *testing.T, i int) *engine.Engine {
	t.Helper()
	topo := netsim.NewTopology(make([]geo.Point, len(c.accounts)), 1)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	e, err := engine.New(engine.Config{
		Accounts:         c.accounts,
		Self:             i,
		PoS:              pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		Genesis:          block.Genesis(42),
		Now:              func() time.Duration { return c.now },
		ValidateClaims:   true,
		SnapshotInterval: 2,
		Topology:         func() *netsim.Topology { return topo },
		Planner:          alloc.NewPlanner(1),
		BlockPlanner:     blockPlanner,
		StorageCapacity:  250,
		Liveness: func(j int) repair.Status {
			if j == c.dead {
				return repair.Dead
			}
			return repair.Alive
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

// reannounced counts the items of chain whose ID an earlier block carries.
func reannounced(chain []*block.Block) int {
	seen := make(map[meta.DataID]bool)
	n := 0
	for _, b := range chain {
		for _, it := range b.Items {
			if seen[it.ID] {
				n++
			}
			seen[it.ID] = true
		}
	}
	return n
}

// checkDifferential asserts that e's own index at now renders what a
// scratch rebuild of chain renders at now, and returns the rendering.
func checkDifferential(t *testing.T, phase string, e *engine.Engine, chain []*block.Block, now time.Duration) string {
	t.Helper()
	scratch := repair.NewIndex(e.Ledger().N())
	scratch.Rebuild(chain)
	scratch.ExpireUntil(now)
	got, want := e.View().Index(now).Snapshot(), scratch.Snapshot()
	if got != want {
		t.Fatalf("%s: engine's index diverged from scratch rebuild\nengine:\n%s\nrebuild:\n%s", phase, got, want)
	}
	return got
}

func TestIndexDifferentialAcrossForkSyncExpiry(t *testing.T) {
	const n = 4
	c := newDiffCluster(t, n)
	all := []int{0, 1, 2, 3}

	// Phase 1: fresh announcements, mixed lifetimes.
	for k := 0; k < 6; k++ {
		validFor := time.Duration(0)
		if k%2 == 0 {
			validFor = 10 * time.Minute // expires in phase 2
		}
		it := c.item(k%n, fmt.Sprintf("item-%d", k), validFor)
		for _, i := range all {
			c.engines[i].AddMetadata(it)
		}
	}
	for k := 0; k < 3; k++ {
		c.mineNext(t, all)
	}
	if s := checkDifferential(t, "announce", c.engines[0], c.engines[0].Chain().Blocks(), c.now); s == "" {
		t.Fatal("nothing announced: the comparison would be vacuous")
	}

	// Phase 2: re-announcement (repair). The first item's first provider is
	// dead for one block, so the winner re-places the items it provides; the
	// new assignment must replace the old one on both paths.
	c.dead = c.engines[0].Chain().Blocks()[1].Items[0].StoringNodes[0]
	c.mineNext(t, all)
	c.dead = -1
	if reannounced(c.engines[0].Chain().Blocks()) == 0 {
		t.Fatal("no item re-announced: the comparison would be vacuous")
	}
	checkDifferential(t, "re-announce", c.engines[0], c.engines[0].Chain().Blocks(), c.now)

	// Phase 3: expiry. Advance past the short-lived items' valid time and
	// keep mining: their assignments must drop identically on both paths.
	c.now += 15 * time.Minute
	c.mineNext(t, all)
	c.mineNext(t, all)
	checkDifferential(t, "expiry", c.engines[0], c.engines[0].Chain().Blocks(), c.now)

	// Phase 4: suffix catch-up sync. A fresh engine receives the first part
	// of the chain block by block, then adopts the rest via AdoptSuffix.
	chain := c.engines[0].Chain().Blocks()
	late := c.newEngine(t, 1)
	split := len(chain) - 2
	for _, b := range chain[1:split] {
		if _, err := late.ReceiveBlock(b); err != nil {
			t.Fatalf("late replay: %v", err)
		}
	}
	if _, ok := late.AdoptSuffix(chain[split:]); !ok {
		t.Fatal("late engine rejected catch-up suffix")
	}
	checkDifferential(t, "suffix-sync", late, chain, c.now)

	// Phase 5: snapshot start. A fresh engine installs engine 0's exported
	// snapshot, takes the blocks above its anchor, and must hold the whole
	// chain's assignments although it never saw a body below the anchor.
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	dec, err := engine.DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	booted := c.newEngine(t, 2)
	if err := booted.BootstrapFromSnapshot(dec); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	for _, b := range chain[snap.Height+1:] {
		if _, err := booted.ReceiveBlock(b); err != nil {
			t.Fatalf("suffix above the anchor: %v", err)
		}
	}
	checkDifferential(t, "snapshot-start", booted, chain, c.now)

	// Phase 6: fork adoption. A disjoint group mines a longer chain from
	// the same genesis; engine 0 adopts it as one suffix from genesis and
	// must match both a scratch rebuild and the index of an engine that
	// followed the winning chain block by block.
	f := newDiffCluster(t, n)
	f.now = c.now
	it := f.item(0, "fork-item", 0)
	for _, i := range all {
		f.engines[i].AddMetadata(it)
	}
	for len(f.engines[0].Chain().Blocks()) <= len(c.engines[0].Chain().Blocks()) {
		f.mineNext(t, all)
	}
	c.now = f.now
	winner := f.engines[0].Chain().Blocks()
	if _, ok := c.engines[0].AdoptSuffix(winner[1:]); !ok {
		t.Fatal("engine 0 refused the longer fork")
	}
	adopted := checkDifferential(t, "fork-adopt", c.engines[0], winner, c.now)
	if want := f.engines[0].View().Index(c.now).Snapshot(); adopted != want {
		t.Fatalf("fork adoption diverged from the winner's incremental index\nadopted:\n%s\nincremental:\n%s", adopted, want)
	}
}
