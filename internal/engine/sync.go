package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/pos"
)

// Incremental fork adoption (DESIGN.md §10). AdoptChain re-validates a
// candidate from genesis against a scratch ledger — O(chain) work that
// grows forever. AdoptSuffix instead adopts only the blocks past the fork
// point, sourcing the ledger/view state at the fork point from a periodic
// snapshot (or from the live state when the suffix simply extends the
// tip), and falls back to the legacy scratch replay when the fork
// predates every snapshot it kept.

// snapshotKeep is how many periodic snapshots the engine retains. Two
// snapshots guarantee that any fork point within one full
// SnapshotInterval of the tip is covered even right after a boundary.
const snapshotKeep = 2

// snapshot is the engine's chain-derived state frozen at one height.
type snapshot struct {
	height    uint64
	hash      block.Hash
	ledger    *pos.Ledger
	view      *StorageView
	inChain   map[meta.DataID]bool
	liveItems map[meta.DataID]*meta.Item
}

// SuffixStats reports what an AdoptSuffix call did, for telemetry: how
// much state was replayed versus a full scratch replay, and how much of
// the batch the verify pool handled.
type SuffixStats struct {
	// ForkPoint is the height of the common ancestor the suffix extends.
	ForkPoint uint64
	// Appended counts suffix blocks validated and applied.
	Appended int
	// Replayed counts this node's own blocks re-applied between the
	// snapshot and the fork point to reconstruct fork-point state.
	Replayed int
	// FullReplay reports that no snapshot covered the fork point and the
	// engine fell back to the legacy scratch replay from genesis.
	FullReplay bool
	// ParallelVerified counts blocks content-verified by the worker pool
	// (0 when the pool ran sequentially).
	ParallelVerified int
}

// maybeSnapshot freezes the engine's state every SnapshotInterval blocks
// (called from postAppend, after the block's transitions applied).
func (e *Engine) maybeSnapshot(height uint64) {
	k := uint64(e.cfg.SnapshotInterval)
	if k == 0 || height == 0 || height%k != 0 {
		return
	}
	s := snapshot{
		height:    height,
		hash:      e.ch.At(height).Hash,
		ledger:    e.ledger.Clone(),
		view:      e.view.Clone(),
		inChain:   make(map[meta.DataID]bool, len(e.inChain)),
		liveItems: make(map[meta.DataID]*meta.Item, len(e.liveItems)),
	}
	for id := range e.inChain {
		s.inChain[id] = true
	}
	for id, it := range e.liveItems {
		s.liveItems[id] = it
	}
	e.snaps = append(e.snaps, s)
	if len(e.snaps) > snapshotKeep {
		e.snaps = e.snaps[len(e.snaps)-snapshotKeep:]
	}
	e.maybePrune()
}

// pruneSnapshots drops snapshots that are no longer on this chain (their
// height was rewritten by a fork adoption). Spine headers are enough:
// snapshot heights may lie below the body window.
func (e *Engine) pruneSnapshots() {
	kept := e.snaps[:0]
	for _, s := range e.snaps {
		if hdr, ok := e.ch.HeaderAt(s.height); ok && hdr.Hash == s.hash {
			kept = append(kept, s)
		}
	}
	for i := len(kept); i < len(e.snaps); i++ {
		e.snaps[i] = snapshot{} // release clones
	}
	e.snaps = kept
}

// bestSnapshot returns the newest retained snapshot at or below height
// that is still on this chain.
func (e *Engine) bestSnapshot(height uint64) (snapshot, bool) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		if s.height > height {
			continue
		}
		if hdr, ok := e.ch.HeaderAt(s.height); !ok || hdr.Hash != s.hash {
			continue
		}
		return s, true
	}
	return snapshot{}, false
}

// Snapshots returns the heights of the currently retained snapshots
// (ascending). Exposed for tests and diagnostics.
func (e *Engine) Snapshots() []uint64 {
	out := make([]uint64, 0, len(e.snaps))
	for _, s := range e.snaps {
		out = append(out, s.height)
	}
	return out
}

// verifyContent runs VerifySelfCached (hash integrity + metadata signatures
// through the engine's signature cache) over every block, fanning out
// across Config.VerifyWorkers goroutines.
// The result is deterministic regardless of worker count and scheduling:
// when several blocks fail, the lowest-index failure is returned. The
// returned count is how many blocks the parallel pool verified (0 when it
// ran sequentially).
func (e *Engine) verifyContent(blocks []*block.Block) (int, error) {
	workers := e.cfg.VerifyWorkers
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers <= 1 {
		for i, b := range blocks {
			if err := b.VerifySelfCached(&e.sigs); err != nil {
				return 0, fmt.Errorf("engine: suffix block %d: %w", i, err)
			}
		}
		return 0, nil
	}
	errs := make([]error, len(blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				errs[i] = blocks[i].VerifySelfCached(&e.sigs)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return len(blocks), fmt.Errorf("engine: suffix block %d: %w", i, err)
		}
	}
	return len(blocks), nil
}

// AdoptSuffix evaluates a candidate chain suffix whose first block links
// to a block this engine already holds (the fork point). The combined
// chain must be strictly longer than the current one and respect
// checkpoint finality, exactly as AdoptChain requires of a full
// candidate; block content is verified by the bounded worker pool and
// PoS claims (when enabled) are replayed sequentially against the ledger
// state reconstructed at the fork point.
//
// State reconstruction costs only the blocks between the newest covering
// snapshot and the fork point — for the common reconnect case (suffix
// extends the tip) nothing is replayed at all. When no snapshot covers
// the fork point, the engine falls back to the legacy scratch replay
// (stats.FullReplay), guaranteeing the same acceptance decisions.
//
// Like AdoptChain, AdoptSuffix runs no OnAppend callbacks and does not
// check block timestamps against Now; on success all chain-derived state
// is swapped atomically and true is returned. On any rejection the
// engine is left exactly as it was.
func (e *Engine) AdoptSuffix(suffix []*block.Block) (SuffixStats, bool) {
	var st SuffixStats
	forkPoint, err := e.ch.CheckSuffixLinks(suffix)
	if err != nil {
		return st, false
	}
	st.ForkPoint = forkPoint
	// Checkpoint rule (Section V-D): refuse to rewrite finalized history.
	if cp := e.LastCheckpoint(); cp > 0 && forkPoint < cp {
		return st, false
	}
	st.ParallelVerified, err = e.verifyContent(suffix)
	if err != nil {
		return st, false
	}

	// Reconstruct ledger/view/index state as of the fork point.
	var (
		ledger     *pos.Ledger
		view       *StorageView
		inChain    map[meta.DataID]bool
		liveItems  map[meta.DataID]*meta.Item
		replayFrom uint64
	)
	if forkPoint == e.ch.Height() {
		// Pure catch-up: the live state *is* the fork-point state. Clone it
		// so a claim failure mid-suffix leaves the engine untouched.
		ledger = e.ledger.Clone()
		view = e.view.Clone()
		inChain = make(map[meta.DataID]bool, len(e.inChain))
		for id := range e.inChain {
			inChain[id] = true
		}
		liveItems = make(map[meta.DataID]*meta.Item, len(e.liveItems))
		for id, it := range e.liveItems {
			liveItems[id] = it
		}
		replayFrom = forkPoint
	} else if s, ok := e.bestSnapshot(forkPoint); ok {
		ledger = s.ledger.Clone()
		view = s.view.Clone()
		inChain = make(map[meta.DataID]bool, len(s.inChain))
		for id := range s.inChain {
			inChain[id] = true
		}
		liveItems = make(map[meta.DataID]*meta.Item, len(s.liveItems))
		for id, it := range s.liveItems {
			liveItems[id] = it
		}
		replayFrom = s.height
	} else {
		// The fork predates every snapshot: legacy scratch replay of the
		// synthesized full candidate. No extra network cost — the prefix is
		// our own chain. A pruned replica cannot synthesize that prefix;
		// refusing is safe because pruning keeps the body window above the
		// checkpoint, so any such fork is non-finalizable history anyway.
		if e.ch.BodyBase() != 0 {
			return st, false
		}
		candidate := make([]*block.Block, 0, int(forkPoint)+1+len(suffix))
		candidate = append(candidate, e.ch.Blocks()[:forkPoint+1]...)
		candidate = append(candidate, suffix...)
		st.FullReplay = true
		st.Replayed = len(candidate) - 1
		st.Appended = len(suffix)
		return st, e.AdoptChain(candidate)
	}

	// Replay our own blocks (replayFrom, forkPoint] — already validated
	// when first adopted, so only the state transitions run.
	for h := replayFrom + 1; h <= forkPoint; h++ {
		b := e.ch.At(h)
		if err := ledger.ApplyBlock(b); err != nil {
			panic(fmt.Sprintf("engine: snapshot replay at %d: %v", h, err))
		}
		view.ApplyBlock(b)
		for _, it := range b.Items {
			inChain[it.ID] = true
			liveItems[it.ID] = it
		}
		st.Replayed++
	}

	// Validate and apply the suffix on the reconstructed state.
	prev := e.ch.At(forkPoint)
	for _, b := range suffix {
		if e.cfg.ValidateClaims {
			if err := e.cfg.PoS.ValidateClaim(prev, b, ledger); err != nil {
				return st, false
			}
		}
		if err := ledger.ApplyBlock(b); err != nil {
			return st, false
		}
		view.ApplyBlock(b)
		for _, it := range b.Items {
			inChain[it.ID] = true
			liveItems[it.ID] = it
		}
		prev = b
		st.Appended++
	}

	// Commit: swap the chain tail and all derived state atomically.
	if err := e.ch.ReplaceSuffix(forkPoint, suffix); err != nil {
		// Cannot happen: CheckSuffixLinks vetted the same suffix above.
		panic("engine: suffix replace after validation: " + err.Error())
	}
	e.ledger = ledger
	e.view = view
	e.inChain = inChain
	e.liveItems = liveItems
	for _, b := range suffix {
		for _, it := range b.Items {
			delete(e.pool, it.ID)
		}
	}
	e.pruneSnapshots()
	e.maybePrune()
	return st, true
}
