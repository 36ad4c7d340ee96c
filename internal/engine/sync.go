package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/block"
)

// Fork and catch-up adoption (DESIGN.md §10): AdoptSuffix is the one way a
// block joins the chain other than by extending the tip. It adopts only the
// blocks past the fork point, on the state as of the fork point: the live
// state when the suffix extends the tip, else the newest periodic snapshot
// at or below the fork with this node's own blocks in between re-applied,
// else (the fork predates every snapshot kept) all of them from genesis.

// snapshotKeep is how many periodic snapshots the engine retains. Two
// snapshots guarantee that any fork point within one full
// SnapshotInterval of the tip is covered even right after a boundary.
const snapshotKeep = 2

// snapshot is the engine's chain-derived state frozen at one height.
type snapshot struct {
	height uint64
	hash   block.Hash
	state
}

// SuffixStats reports what an AdoptSuffix call did, for telemetry: how
// much state was replayed, and how much of the batch the verify pool
// handled.
type SuffixStats struct {
	// ForkPoint is the height of the common ancestor the suffix extends.
	ForkPoint uint64
	// Appended counts suffix blocks validated and applied.
	Appended int
	// Replayed counts this node's own blocks re-applied to reconstruct
	// fork-point state: those above the snapshot, or on a full replay all
	// of them up to the fork point.
	Replayed int
	// FullReplay reports that no snapshot covered the fork point and
	// fork-point state was replayed from genesis.
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
	e.snaps = append(e.snaps, snapshot{height: height, hash: e.ch.At(height).Hash, state: e.state.clone()})
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

// stateAt returns the chain-derived state as of height h of this chain, for
// a suffix to be validated on without touching the live state, and records
// in st what rebuilding it took. ok is false on a pruned replica that holds
// no snapshot at or below h: the bodies to replay are gone. Refusing is safe
// because pruning keeps the body window above the checkpoint, so any such
// fork rewrites finalized history anyway.
func (e *Engine) stateAt(h uint64, st *SuffixStats) (s state, ok bool) {
	from := h
	snap, covered := e.bestSnapshot(h)
	switch {
	case h == e.ch.Height():
		s = e.state.clone()
	case covered:
		s, from = snap.state.clone(), snap.height
	case e.ch.BodyBase() != 0:
		return state{}, false
	default:
		s, from, st.FullReplay = e.cfg.genesisState(), 0, true
	}
	// Our own blocks (from, h] were validated when first adopted, so only
	// the state transitions run.
	for i := from + 1; i <= h; i++ {
		if _, err := s.apply(e.ch.At(i), e.cfg.Self, false); err != nil {
			panic(fmt.Sprintf("engine: replay of own block %d: %v", i, err))
		}
	}
	st.Replayed = int(h - from)
	return s, true
}

// AdoptSuffix evaluates a candidate chain suffix whose first block links
// to a block this engine already holds (the fork point). The combined
// chain must be strictly longer than the current one and must not rewrite
// finalized history (Section V-D); block content is verified by the bounded
// worker pool, and item admission and PoS claims (when enabled) are
// replayed sequentially against the state reconstructed at the fork point
// (stateAt). Block timestamps are not checked against Now.
//
// On any rejection the engine is left exactly as it was and no callback
// runs. On success the chain tail and all derived state are swapped
// atomically, the unexpired items that only the blocks leaving the chain had
// packed return to the pool, and true is returned; before that,
// Config.OnDisconnect hears those blocks, if any, and Config.OnAppend one
// event per suffix block, oldest first — the events a block-by-block
// ReceiveBlock of the same suffix would have delivered, except that the
// engine already stands at the new tip when the first one arrives.
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
	next, ok := e.stateAt(forkPoint, &st)
	if !ok {
		return st, false
	}

	// Validate and apply the suffix on the reconstructed state.
	events := make([]AppendEvent, len(suffix))
	prev := e.ch.At(forkPoint)
	for i, b := range suffix {
		if next.view.items.Admit(b.Timestamp, b.Items) != nil {
			return st, false
		}
		if err := e.cfg.PoS.ValidateClaim(prev, b, next.ledger); err != nil {
			return st, false
		}
		if events[i], err = next.apply(b, e.cfg.Self, e.cfg.OnAppend != nil); err != nil {
			return st, false
		}
		prev = b
		st.Appended++
	}

	// Commit: swap the chain tail and all derived state atomically.
	disconnected := e.ch.Range(forkPoint+1, e.ch.Height())
	if err := e.ch.ReplaceSuffix(forkPoint, suffix); err != nil {
		// Cannot happen: CheckSuffixLinks vetted the same suffix above.
		panic("engine: suffix replace after validation: " + err.Error())
	}
	e.state = next
	for _, b := range suffix {
		for _, it := range b.Items {
			delete(e.pool, it.ID)
		}
	}
	// Nothing acknowledged is lost: what the losing branch had packed and the
	// winning one does not goes back to the pool, through AddMetadata's own
	// admission (not on the new chain; the signature is a cache hit, it was
	// verified when the block was adopted; an expired item is dropped there).
	for _, b := range disconnected {
		for _, it := range b.Items {
			// Pooled as published: the losing miner's placement is void.
			unpacked := it.Clone()
			unpacked.StoringNodes = nil
			e.AddMetadata(unpacked)
		}
	}
	e.pruneSnapshots()
	e.maybePrune()

	if cb := e.cfg.OnDisconnect; cb != nil && len(disconnected) > 0 {
		cb(disconnected)
	}
	if cb := e.cfg.OnAppend; cb != nil {
		for _, ev := range events {
			cb(ev)
		}
	}
	return st, true
}
