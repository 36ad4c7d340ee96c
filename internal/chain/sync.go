package chain

import (
	"errors"
	"fmt"

	"repro/internal/block"
)

// This file holds the replica-side primitives of the incremental sync
// protocol (DESIGN.md §10): block locators for fork-point discovery,
// bounded block ranges for batched transfer, and suffix replacement for
// adopting a fork without rebuilding the whole replica. All of them
// operate on the header spine where possible, so they keep working on
// pruned replicas (DESIGN.md §14).

// LocatorEntry is one (height, hash) sample of a block locator.
type LocatorEntry struct {
	Height uint64
	Hash   block.Hash
}

// MaxLocatorLen bounds a locator: 12 dense tip samples plus one sample
// per power-of-two step back to genesis covers any chain that fits in a
// uint64 height within this many entries.
const MaxLocatorLen = 12 + 64 + 1

// Locator samples the replica's chain tip-first: the 12 most recent
// blocks densely, then exponentially sparser heights (step doubling each
// entry), always ending with genesis. A peer intersects the locator with
// its own chain to find the highest common ancestor without either side
// shipping full chains — the standard block-locator construction. Heights
// below a bootstrap anchor are unknown and skipped straight to genesis.
func (c *Chain) Locator() []LocatorEntry {
	out := make([]LocatorEntry, 0, 16)
	h := c.Height()
	step := uint64(1)
	for {
		if h != 0 && h < c.hdrBase {
			// Below the bootstrap anchor nothing but genesis is known.
			h = 0
		}
		hdr, _ := c.HeaderAt(h)
		out = append(out, LocatorEntry{Height: h, Hash: hdr.Hash})
		if h == 0 {
			return out
		}
		if len(out) >= 12 {
			step *= 2
		}
		if h <= step {
			h = 0
		} else {
			h -= step
		}
	}
}

// FindForkPoint returns the height of the highest locator entry that
// matches this replica's header spine. ok is false when nothing matches —
// which cannot happen between peers sharing a genesis block, since every
// locator ends with genesis.
func (c *Chain) FindForkPoint(loc []LocatorEntry) (uint64, bool) {
	best := uint64(0)
	found := false
	for _, e := range loc {
		hdr, ok := c.HeaderAt(e.Height)
		if !ok {
			continue
		}
		if hdr.Hash == e.Hash {
			if !found || e.Height > best {
				best = e.Height
				found = true
			}
		}
	}
	return best, found
}

// Range returns the blocks with indices in [from, to], clamped to what
// the replica holds. An empty slice means the range is entirely beyond
// the tip, inverted, or starts below the body window — a pruned replica
// cannot serve history it no longer stores, and callers require the
// result to be contiguous from `from`.
func (c *Chain) Range(from, to uint64) []*block.Block {
	if to > c.Height() {
		to = c.Height()
	}
	if from > to || from < c.bodyBase {
		return nil
	}
	out := make([]*block.Block, 0, to-from+1)
	for i := from; i <= to; i++ {
		out = append(out, c.bodies[i-c.bodyBase])
	}
	return out
}

// Suffix replacement errors.
var (
	// ErrBadSuffix means the candidate suffix is structurally unusable:
	// empty, non-contiguous, or not linked to a block this replica holds.
	ErrBadSuffix = errors.New("chain: bad suffix")
	// ErrSuffixNotLonger means fork point + suffix does not beat the
	// current height (longest-chain rule keeps ours).
	ErrSuffixNotLonger = errors.New("chain: suffix does not extend past current tip")
)

// CheckSuffixLinks verifies a candidate suffix's spine against this
// replica without touching any state: the suffix must be non-empty,
// contiguously indexed, linked (prev hash, timestamp, PoSHash chain) to
// the replica's header at suffix[0].Index-1, internally linked, and must
// reach strictly past the current tip. It does NOT run VerifySelf — the
// caller is expected to content-verify blocks (possibly in parallel)
// before committing. The fork-point body need not be retained: the spine
// header is enough to link-verify. On success it returns the fork-point
// height.
func (c *Chain) CheckSuffixLinks(suffix []*block.Block) (forkPoint uint64, err error) {
	if len(suffix) == 0 {
		return 0, fmt.Errorf("%w: empty", ErrBadSuffix)
	}
	first := suffix[0]
	if first.Index == 0 {
		return 0, fmt.Errorf("%w: cannot replace genesis", ErrBadSuffix)
	}
	forkPoint = first.Index - 1
	parent, ok := c.HeaderAt(forkPoint)
	if !ok {
		return 0, fmt.Errorf("%w: fork point %d outside spine [%d, %d]", ErrBadSuffix, forkPoint, c.hdrBase, c.Height())
	}
	if err := parent.VerifyLink(first); err != nil {
		return 0, fmt.Errorf("%w: offset 0: %v", ErrBadSuffix, err)
	}
	prev := first
	for i, b := range suffix[1:] {
		if b.Index != forkPoint+2+uint64(i) {
			return 0, fmt.Errorf("%w: non-contiguous index %d at offset %d", ErrBadSuffix, b.Index, i+1)
		}
		if err := b.VerifyLink(prev); err != nil {
			return 0, fmt.Errorf("%w: offset %d: %v", ErrBadSuffix, i+1, err)
		}
		prev = b
	}
	if forkPoint+uint64(len(suffix)) <= c.Height() {
		return 0, fmt.Errorf("%w: reaches %d, tip is %d", ErrSuffixNotLonger, forkPoint+uint64(len(suffix)), c.Height())
	}
	return forkPoint, nil
}

// ReplaceSuffix swaps everything above forkPoint for the given suffix.
// The caller must have validated the suffix (CheckSuffixLinks plus
// content verification and any consensus-level claim checks): this method
// re-checks only the cheap structural facts and otherwise mutates
// blindly. PreAppend/PostAppend hooks do NOT run — callers that track
// derived state (the engine's ledger and storage view) validate the suffix
// against a copy of it first and swap that in themselves.
//
// If forkPoint lies below the body window base, the retained bodies are
// replaced wholesale and the window base moves to forkPoint+1; the header
// spine above forkPoint is rewritten either way.
func (c *Chain) ReplaceSuffix(forkPoint uint64, suffix []*block.Block) error {
	fp, err := c.CheckSuffixLinks(suffix)
	if err != nil {
		return err
	}
	if fp != forkPoint {
		return fmt.Errorf("%w: suffix starts at %d, caller claimed fork point %d", ErrBadSuffix, fp+1, forkPoint+1)
	}
	for _, h := range c.headers[forkPoint+1-c.hdrBase:] {
		delete(c.byHash, h.Hash)
	}
	headers := make([]Header, 0, forkPoint+1-c.hdrBase+uint64(len(suffix)))
	headers = append(headers, c.headers[:forkPoint+1-c.hdrBase]...)
	// Fresh backing arrays: Blocks() callers may still hold the old slice.
	var bodies []*block.Block
	if forkPoint+1 >= c.bodyBase {
		bodies = make([]*block.Block, 0, forkPoint+1-c.bodyBase+uint64(len(suffix)))
		bodies = append(bodies, c.bodies[:forkPoint+1-c.bodyBase]...)
	} else {
		// Fork below the pruned window: only the new suffix has bodies.
		bodies = make([]*block.Block, 0, len(suffix))
		c.bodyBase = forkPoint + 1
	}
	for _, b := range suffix {
		headers = append(headers, HeaderOf(b))
		bodies = append(bodies, b)
		c.byHash[b.Hash] = b.Index
	}
	c.headers = headers
	c.bodies = bodies
	return nil
}
