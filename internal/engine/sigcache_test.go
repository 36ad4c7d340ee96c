package engine

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
)

func sigStats(e *Engine) [2]uint64 {
	h, m := e.SigCacheStats()
	return [2]uint64{h, m}
}

// Engines in one process share no verification work: what A verified is
// still a miss at B, exactly as in two separate processes.
func TestSigCacheIsPerEngine(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	a, b := c.engines[0], c.engines[1]
	it := c.item(0, "per-engine")
	if !a.AddMetadata(it) || sigStats(a) != [2]uint64{0, 1} {
		t.Fatalf("A's first sight: hits/misses %v, want 0/1", sigStats(a))
	}
	if sigStats(b) != [2]uint64{0, 0} {
		t.Fatalf("B counted A's verification: %v", sigStats(b))
	}
	if !b.AddMetadata(it) || sigStats(b) != [2]uint64{0, 1} {
		t.Fatalf("B's first sight of an item A verified: hits/misses %v, want a miss (0/1)", sigStats(b))
	}
	c.mineNext(t)
	if sigStats(a) != [2]uint64{1, 1} || sigStats(b) != [2]uint64{1, 1} {
		t.Fatalf("block packing the relayed item: A %v, B %v, want 1/1 each", sigStats(a), sigStats(b))
	}
}

// Forged metadata is checked in full every time it is offered.
func TestAddMetadataNeverCachesForgery(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	e := c.engines[0]
	forged := c.item(0, "forged")
	forged.Type = "Forged/Type"
	for i := 1; i <= 2; i++ {
		if e.AddMetadata(forged) {
			t.Fatalf("attempt %d: forged item pooled", i)
		}
		if sigStats(e) != [2]uint64{0, uint64(i)} {
			t.Fatalf("attempt %d: hits/misses %v, want 0/%d", i, sigStats(e), i)
		}
	}
}

// From relay through block adoption, fork re-adoption and a full replay, a
// node runs ed25519 once per distinct item it ever sees.
func TestVerifyOncePerItemPerNode(t *testing.T) {
	const prefix, local, remote = 6, 1, 3
	c, suffix := forkFixture(t, 4, prefix, local, remote)
	obs := c.engines[2]
	// Relayed then mined: one miss and one hit per prefix and local item.
	if want := [2]uint64{prefix + local, prefix + local}; sigStats(obs) != want {
		t.Fatalf("before the fork: hits/misses %v, want %v", sigStats(obs), want)
	}
	if _, ok := obs.AdoptSuffix(suffix); !ok {
		t.Fatal("valid suffix rejected")
	}
	// The remote branch's items were never relayed here: first sight. The
	// losing branch's item returns to the pool on a cache hit.
	if want := [2]uint64{prefix + 2*local, prefix + local + remote}; sigStats(obs) != want {
		t.Fatalf("after adopting the fork: hits/misses %v, want %v", sigStats(obs), want)
	}
	// A full replay of the adopted chain finds every signature cached.
	all := obs.Chain().Blocks()
	if _, err := obs.verifyContent(all); err != nil {
		t.Fatal(err)
	}
	if want := [2]uint64{2*prefix + 2*local + remote, prefix + local + remote}; sigStats(obs) != want {
		t.Fatalf("after a full replay: hits/misses %v, want %v", sigStats(obs), want)
	}
	// A suffix that restates the shared prefix finds those signatures cached.
	whole := c.engines[3]
	if _, ok := whole.AdoptSuffix(c.engines[0].Chain().Blocks()[1:]); !ok {
		t.Fatal("valid whole-chain suffix rejected")
	}
	if want := [2]uint64{2*prefix + 2*local, prefix + local + remote}; sigStats(whole) != want {
		t.Fatalf("whole-chain suffix: hits/misses %v, want %v", sigStats(whole), want)
	}
}

// The miner verifies items it produced itself (pooled unverified by
// AddLocal) once, when it adopts its own block.
func TestMineVerifiesLocalItemsOnce(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	e := c.engines[0]
	for i := 0; i < 3; i++ {
		e.AddLocal(c.item(0, fmt.Sprint("local ", i)))
	}
	blk := c.mineNext(t)
	if len(blk.Items) != 3 || sigStats(e) != [2]uint64{0, 3} {
		t.Fatalf("mined %d items, hits/misses %v, want 3 items and 0/3", len(blk.Items), sigStats(e))
	}
	if _, err := e.verifyContent([]*block.Block{blk}); err != nil || sigStats(e) != [2]uint64{3, 3} {
		t.Fatalf("re-verifying the own block: err %v, hits/misses %v, want 3/3", err, sigStats(e))
	}
}

// The worker pool shares the engine's cache; with several bad blocks in a
// batch it reports the same lowest-index error as the sequential path,
// cold and warm. Run under -race, this is also the cache's concurrency
// test: every block packs the same items, so workers look up and insert
// the same keys at once.
func TestVerifyContentParallelMatchesSequential(t *testing.T) {
	c := newTestCluster(t, 1, nil)
	var blocks []*block.Block
	prev := block.Genesis(42)
	for i := 0; i < 16; i++ {
		bld := block.NewBuilder(prev, c.accounts[0], time.Duration(i+1)*time.Minute, 60, 0.5)
		for k := 0; k < 6; k++ {
			it := c.item(0, fmt.Sprint("shared ", k))
			if i == 5 && k == 4 {
				it.DataSize++ // sealed below: the hash is right, the signature is not
			}
			bld.AddItem(it)
		}
		blk := bld.Seal()
		if i == 11 {
			blk.StoringNodes = []int{7} // not re-sealed: bad hash
		}
		blocks = append(blocks, blk)
		prev = blk
	}
	run := func(workers int) (errs [2]string) {
		e := newTestCluster(t, 1, func(_ int, cfg *Config) { cfg.VerifyWorkers = workers }).engines[0]
		for round := range errs { // cold, then warm
			_, err := e.verifyContent(blocks)
			if err == nil {
				t.Fatalf("workers=%d: bad batch verified", workers)
			}
			errs[round] = err.Error()
		}
		if hits, _ := e.SigCacheStats(); hits == 0 {
			t.Fatalf("workers=%d: the cache was never hit", workers)
		}
		return errs
	}
	seq := run(0)
	if seq[0] != seq[1] {
		t.Fatalf("sequential verdict changed once warm: %q then %q", seq[0], seq[1])
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); got != seq {
			t.Fatalf("workers=%d: errors %q, sequential %q", workers, got, seq)
		}
	}
	// The same through AdoptSuffix: the chain links hold (they use the
	// stored hashes), content verification must refuse, state stays put.
	for _, workers := range []int{0, 4} {
		e := newTestCluster(t, 1, func(_ int, cfg *Config) {
			cfg.VerifyWorkers = workers
			cfg.ValidateClaims = false
		}).engines[0]
		if _, ok := e.AdoptSuffix(blocks); ok || e.Height() != 0 {
			t.Fatalf("workers=%d: suffix with forged content adopted (height %d)", workers, e.Height())
		}
		if _, ok := e.AdoptSuffix(blocks[:5]); !ok || e.Height() != 5 {
			t.Fatalf("workers=%d: clean prefix of the suffix rejected (height %d)", workers, e.Height())
		}
	}
}
