package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/pos"
)

// Differential equivalence suite. AdoptSuffix must make the acceptance
// decisions, and reach the state, of the simplest thing that could work:
// take the whole candidate chain, validate it from genesis against a scratch
// ledger, and rebuild every piece of derived state from nothing. That was
// the engine's first fork path (AdoptChain + chain.ReplaceIfLonger +
// Ledger.Rebuild); it is retired from the engine and lives on below as the
// reference. For every seeded fork scenario two observer engines with
// identical histories get the bare suffix and the synthesized full candidate
// respectively, and must end bit-identical: tip hash, every block hash,
// ledger, StorageView (with its item index) and pool.
//
// The scenarios deliberately avoid the two pieces of state that are NOT
// chain-derived and hence outside the equivalence contract: ledger rentals
// (Ledger.Rebuild documents they reset on scratch replay) and item
// expiry (no test item carries a ValidFor).

// AdoptChain is the reference oracle: whole-chain adoption by scratch replay.
// It shares no logic with AdoptSuffix beyond the checkpoint rule's one line.
func (e *Engine) AdoptChain(blocks []*block.Block) bool {
	if len(blocks) <= e.ch.Len() || blocks[0].Hash != e.cfg.Genesis.Hash || blocks[0].VerifySelf() != nil {
		return false
	}
	if cp := e.LastCheckpoint(); cp > 0 {
		hdr, ok := e.ch.HeaderAt(cp)
		if !ok || uint64(len(blocks)) <= cp || blocks[cp].Hash != hdr.Hash {
			return false
		}
	}
	// Structure and content through a hookless scratch replica, claims
	// against a scratch ledger.
	ch := chain.New(e.cfg.Genesis)
	ch.Sigs = &e.sigs
	scratch := pos.NewLedger(e.cfg.Accounts)
	for i, b := range blocks[1:] {
		if _, err := ch.Add(b); err != nil {
			return false
		}
		if e.cfg.ValidateClaims && e.cfg.PoS.ValidateClaim(blocks[i], b, scratch) != nil {
			return false
		}
		if scratch.ApplyBlock(b) != nil {
			return false
		}
	}
	ch.PreAppend, ch.PostAppend = e.preAppend, e.postAppend
	old := e.ch.Blocks()
	e.ch = ch
	if err := e.ledger.Rebuild(blocks); err != nil {
		panic(err)
	}
	e.view.Rebuild(blocks)
	for _, b := range blocks {
		for _, it := range b.Items {
			delete(e.pool, it.ID)
		}
	}
	// What only the replaced chain had packed is pending again.
	for _, b := range old {
		for _, it := range b.Items {
			if !e.OnChain(it.ID) && !it.Expired(e.cfg.Now()) {
				e.pool[it.ID] = it
			}
		}
	}
	e.pruneSnapshots()
	e.maybePrune()
	return true
}

// mineAmong plays one round among a subset of the cluster's engines: the
// member with the earliest winning time mines and only members adopt, so
// disjoint subsets grow diverging branches.
func (c *testCluster) mineAmong(t testing.TB, members []int) *block.Block {
	t.Helper()
	winner := -1
	var best Round
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
		t.Fatal("no member can mine")
	}
	c.now = best.FireAt()
	res, err := c.engines[winner].Mine(best)
	if err != nil {
		t.Fatalf("engine %d mine: %v", winner, err)
	}
	if res == nil {
		t.Fatalf("engine %d: round moved on unexpectedly", winner)
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

// assertEngineStateEqual requires two engines to agree on every piece of
// chain-derived state, bit for bit.
func assertEngineStateEqual(t *testing.T, a, b *Engine) {
	t.Helper()
	ab, bb := a.ch.Blocks(), b.ch.Blocks()
	if len(ab) != len(bb) {
		t.Fatalf("chain lengths differ: %d vs %d", len(ab), len(bb))
	}
	for h := range ab {
		if ab[h].Hash != bb[h].Hash {
			t.Fatalf("block hash at height %d differs", h)
		}
	}
	if !reflect.DeepEqual(a.ledger, b.ledger) {
		t.Errorf("ledgers differ:\n  suffix: %+v\n  chain:  %+v", a.ledger, b.ledger)
	}
	if !reflect.DeepEqual(a.view, b.view) {
		t.Errorf("storage views differ:\n  suffix: %+v\n  chain:  %+v", a.view, b.view)
	}
	apool, bpool := make(map[string]bool), make(map[string]bool)
	for id := range a.pool {
		apool[id.Short()] = true
	}
	for id := range b.pool {
		bpool[id.Short()] = true
	}
	if !reflect.DeepEqual(apool, bpool) {
		t.Errorf("pools differ: %v vs %v", apool, bpool)
	}
}

// forkFixture builds a 4-engine cluster (0,1 = remote branch; 2,3 = local
// observers) that agrees on prefixLen blocks, then diverges: the local
// pair mines localExtra blocks, the remote pair remoteExtra (strictly
// more). It returns the cluster and the remote suffix past the fork point.
// Engines 2 and 3 receive identical histories throughout; snapInterval
// configures their snapshot cadence (0 = none).
func forkFixture(t *testing.T, snapInterval, prefixLen, localExtra, remoteExtra int) (*testCluster, []*block.Block) {
	t.Helper()
	if remoteExtra <= localExtra {
		t.Fatal("fixture: remote branch must outgrow local")
	}
	c := newTestCluster(t, 4, func(i int, cfg *Config) {
		cfg.SnapshotInterval = snapInterval
		cfg.VerifyWorkers = 4
	})
	all := []int{0, 1, 2, 3}
	seq := 0
	publish := func(to []int) {
		seq++
		it := c.item(to[0], fmt.Sprintf("diff item %d", seq))
		for _, i := range to {
			if !c.engines[i].AddMetadata(it) {
				t.Fatalf("add metadata rejected for engine %d", i)
			}
		}
	}
	for i := 0; i < prefixLen; i++ {
		publish(all)
		c.mineAmong(t, all)
	}
	// Partition: observers extend their own branch first...
	for i := 0; i < localExtra; i++ {
		publish([]int{2, 3})
		c.mineAmong(t, []int{2, 3})
	}
	// ...then the remote pair mines the longer branch in isolation.
	for i := 0; i < remoteExtra; i++ {
		publish([]int{0, 1})
		c.mineAmong(t, []int{0, 1})
	}
	remote := c.engines[0].Chain().Blocks()
	suffix := append([]*block.Block(nil), remote[prefixLen+1:]...)
	return c, suffix
}

// runDifferential adopts the remote branch on observer 2 via AdoptSuffix
// and on observer 3 via the AdoptChain oracle, then checks equivalence.
func runDifferential(t *testing.T, c *testCluster, suffix []*block.Block, wantFullReplay bool) SuffixStats {
	t.Helper()
	candidate := append([]*block.Block(nil), c.engines[0].Chain().Blocks()...)
	stats, ok := c.engines[2].AdoptSuffix(suffix)
	if !ok {
		t.Fatalf("AdoptSuffix rejected a valid suffix (stats %+v)", stats)
	}
	if !c.engines[3].AdoptChain(candidate) {
		t.Fatal("AdoptChain rejected a valid candidate")
	}
	if stats.FullReplay != wantFullReplay {
		t.Errorf("FullReplay = %v, want %v (stats %+v)", stats.FullReplay, wantFullReplay, stats)
	}
	if stats.Appended != len(suffix) {
		t.Errorf("Appended = %d, want %d", stats.Appended, len(suffix))
	}
	assertEngineStateEqual(t, c.engines[2], c.engines[3])
	return stats
}

func TestAdoptSuffixEquivalentForkAfterSnapshot(t *testing.T) {
	// Snapshots at 4 and 8; fork point 10 is above the newest snapshot, so
	// the suffix path replays blocks 9–10 from the snapshot at 8.
	c, suffix := forkFixture(t, 4, 10, 1, 3)
	stats := runDifferential(t, c, suffix, false)
	if stats.Replayed != 2 {
		t.Errorf("Replayed = %d, want 2 (snapshot at 8, fork at 10)", stats.Replayed)
	}
}

func TestAdoptSuffixEquivalentForkAtSnapshot(t *testing.T) {
	// Fork point 8 coincides with the snapshot: nothing to replay.
	c, suffix := forkFixture(t, 4, 8, 1, 3)
	stats := runDifferential(t, c, suffix, false)
	if stats.Replayed != 0 {
		t.Errorf("Replayed = %d, want 0 (fork exactly at snapshot)", stats.Replayed)
	}
}

func TestAdoptSuffixEquivalentForkBeforeSnapshot(t *testing.T) {
	// Observers snapshot at 4 and 8 on their own branch, but the fork point
	// 3 predates both: fork-point state is replayed from genesis and must
	// still match the oracle exactly.
	c, suffix := forkFixture(t, 4, 3, 6, 8)
	stats := runDifferential(t, c, suffix, true)
	if stats.Replayed != 3 {
		t.Errorf("Replayed = %d, want the 3 own blocks below the fork", stats.Replayed)
	}
}

func TestAdoptSuffixEquivalentCatchUp(t *testing.T) {
	// Observers simply stall (no local branch): the suffix extends the tip
	// and the live state is the fork-point state — zero replay, even with
	// snapshots disabled.
	c := newTestCluster(t, 4, func(i int, cfg *Config) { cfg.VerifyWorkers = 4 })
	all := []int{0, 1, 2, 3}
	for i := 0; i < 6; i++ {
		it := c.item(0, fmt.Sprintf("catchup item %d", i))
		for _, j := range all {
			if !c.engines[j].AddMetadata(it) {
				t.Fatal("add metadata rejected")
			}
		}
		c.mineAmong(t, all)
	}
	for i := 0; i < 5; i++ {
		c.mineAmong(t, []int{0, 1})
	}
	suffix := append([]*block.Block(nil), c.engines[0].Chain().Blocks()[7:]...)
	stats := runDifferential(t, c, suffix, false)
	if stats.Replayed != 0 {
		t.Errorf("Replayed = %d, want 0 for a pure tip extension", stats.Replayed)
	}
	if stats.ForkPoint != 6 {
		t.Errorf("ForkPoint = %d, want 6", stats.ForkPoint)
	}
}

func TestAdoptSuffixRejectsEmptyAndLeavesStateUntouched(t *testing.T) {
	c, _ := forkFixture(t, 4, 8, 1, 3)
	before := c.engines[2].Tip().Hash
	if _, ok := c.engines[2].AdoptSuffix(nil); ok {
		t.Fatal("empty suffix adopted")
	}
	if _, ok := c.engines[2].AdoptSuffix([]*block.Block{}); ok {
		t.Fatal("zero-length suffix adopted")
	}
	if c.engines[2].Tip().Hash != before {
		t.Fatal("rejected suffix mutated the chain")
	}
	// Both observers must still agree after the no-ops.
	assertEngineStateEqual(t, c.engines[2], c.engines[3])
}

func TestAdoptSuffixRejectsForgedClaims(t *testing.T) {
	// An adversary re-seals the remote suffix under its own identity: the
	// blocks are well-formed (valid hashes, valid signatures on items) but
	// the PoS claims are forged. Both paths must refuse, identically, and
	// leave the observers' state bit-identical to before.
	c, suffix := forkFixture(t, 4, 8, 1, 3)
	forged := make([]*block.Block, len(suffix))
	prev := c.engines[2].Chain().At(suffix[0].Index - 1)
	for i, b := range suffix {
		bld := block.NewBuilder(prev, c.accounts[3], b.Timestamp, 1, 1e-6)
		for _, it := range b.Items {
			bld.AddItem(it)
		}
		forged[i] = bld.SetPrevStoringNodes(b.PrevStoringNodes).Seal()
		prev = forged[i]
	}
	tipBefore := c.engines[2].Tip().Hash
	if _, ok := c.engines[2].AdoptSuffix(forged); ok {
		t.Fatal("AdoptSuffix accepted forged claims")
	}
	candidate := append([]*block.Block(nil), c.engines[3].Chain().Blocks()[:suffix[0].Index]...)
	candidate = append(candidate, forged...)
	if c.engines[3].AdoptChain(candidate) {
		t.Fatal("AdoptChain accepted forged claims")
	}
	if c.engines[2].Tip().Hash != tipBefore {
		t.Fatal("rejected forged suffix mutated the chain")
	}
	assertEngineStateEqual(t, c.engines[2], c.engines[3])
}

func TestAdoptSuffixParallelVerifyDeterministic(t *testing.T) {
	// The verify pool must produce the same decision for every worker
	// count, including the sequential path.
	for _, workers := range []int{0, 1, 2, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c, suffix := forkFixture(t, 4, 8, 1, 3)
			c.engines[2].cfg.VerifyWorkers = workers
			stats, ok := c.engines[2].AdoptSuffix(suffix)
			if !ok {
				t.Fatalf("valid suffix rejected with %d workers", workers)
			}
			if workers > 1 && stats.ParallelVerified != len(suffix) {
				t.Errorf("ParallelVerified = %d, want %d", stats.ParallelVerified, len(suffix))
			}
			if workers <= 1 && stats.ParallelVerified != 0 {
				t.Errorf("ParallelVerified = %d, want 0 on the sequential path", stats.ParallelVerified)
			}
			if !c.engines[3].AdoptChain(c.engines[0].Chain().Blocks()) {
				t.Fatal("oracle rejected the candidate")
			}
			assertEngineStateEqual(t, c.engines[2], c.engines[3])
		})
	}
}
