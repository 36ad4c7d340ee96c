// Package chain maintains a node's replica of the blockchain.
//
// The replica distinguishes *knowing* a block (having validated it and
// linked it into the chain) from *storing* its body, which only assigned
// nodes do (Section IV-B); storage accounting lives in the core node. The
// replica also implements the gap detection of Section III-C: a node that
// receives a block whose index exceeds its tip index + 1 knows exactly
// which indices it is missing. Such a block is refused unread (ErrGap); the
// caller fills the gap by a locator sync, which brings the block again.
//
// Since the finite-lifetime refactor (DESIGN.md §14) the replica separates
// the *header spine* — one fixed-size Header per known height, enough to
// answer locators, find fork points and enforce checkpoint finality — from
// the *body window*, the suffix of full blocks above the prune horizon.
// Prune discards bodies below a height; the spine is never pruned except
// by bootstrap construction, which anchors the replica at a snapshot block
// and leaves heights below it unknown (other than genesis).
package chain

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
)

// Validation and append errors.
var (
	// ErrDuplicate means the block is already part of the chain.
	ErrDuplicate = errors.New("chain: duplicate block")
	// ErrGap means the block's index leaves a gap after the current tip;
	// the missing indices should be fetched. The block was not read.
	ErrGap = errors.New("chain: gap before block")
	// ErrStale means the block extends a shorter or equal fork and was
	// ignored (longest-chain rule).
	ErrStale = errors.New("chain: stale block")
	// ErrPrunedBody means the height is part of the chain but its body has
	// been pruned away (only the header remains).
	ErrPrunedBody = errors.New("chain: body pruned")
	// ErrUnknownHeight means the height is beyond the tip (or, on a
	// bootstrapped replica, below the anchor).
	ErrUnknownHeight = errors.New("chain: unknown height")
)

// Header is the fixed-size spine entry kept for every known height even
// after the body is pruned: enough to serve locators, detect fork points,
// and link-verify a child block (index, hashes, timestamp monotonicity and
// the eq. 7 PoSHash chain all come from these fields).
type Header struct {
	Index     uint64
	Hash      block.Hash
	PrevHash  block.Hash
	Miner     identity.Address
	Timestamp time.Duration
	PoSHash   block.Hash
}

// HeaderOf extracts the spine header of a block.
func HeaderOf(b *block.Block) Header {
	return Header{
		Index:     b.Index,
		Hash:      b.Hash,
		PrevHash:  b.PrevHash,
		Miner:     b.Miner,
		Timestamp: b.Timestamp,
		PoSHash:   b.PoSHash,
	}
}

// VerifyLink checks that child correctly extends this header — the same
// checks as block.VerifyLink, usable when the parent body is pruned.
func (h Header) VerifyLink(child *block.Block) error {
	stub := &block.Block{
		Index:     h.Index,
		Hash:      h.Hash,
		Timestamp: h.Timestamp,
		PoSHash:   h.PoSHash,
	}
	return child.VerifyLink(stub)
}

// Chain is a single node's validated replica. It is not safe for concurrent
// use; the simulation is single-threaded by construction.
//
// Invariants: headers covers the contiguous height range [hdrBase, tip] and
// is never empty; bodies covers [bodyBase, tip] with bodyBase >= hdrBase, so
// the tip body is always present. genesis is retained even when pruned out
// of the body window. byHash indexes every known header plus genesis.
type Chain struct {
	genesis  *block.Block
	headers  []Header
	hdrBase  uint64
	bodies   []*block.Block
	bodyBase uint64
	byHash   map[block.Hash]uint64

	// PreAppend, if set, can veto a block after the structural checks but
	// before it is appended; the core layer uses it for Proof-of-Stake
	// claim validation. prev is the block being extended.
	PreAppend func(prev, b *block.Block) error
	// PostAppend, if set, runs after every append; the engine uses it to
	// advance the stake ledger.
	PostAppend func(b *block.Block)
	// Sigs, if set, is the owning node's verified-signature cache: Add
	// checks item signatures through it.
	Sigs *meta.SigCache
}

// New creates a replica seeded with the genesis block.
func New(genesis *block.Block) *Chain {
	if genesis == nil || genesis.Index != 0 {
		panic("chain: genesis must have index 0")
	}
	c := &Chain{
		genesis: genesis,
		headers: []Header{HeaderOf(genesis)},
		bodies:  []*block.Block{genesis},
		byHash:  map[block.Hash]uint64{genesis.Hash: 0},
	}
	return c
}

// NewBootstrapped creates a replica anchored at a snapshot block instead of
// genesis (DESIGN.md §14): the spine holds only genesis and the anchor, and
// heights in between are unknown to this replica. The caller is responsible
// for having content-verified the anchor (engine.BootstrapFromSnapshot
// does); this constructor checks only structural facts.
func NewBootstrapped(genesis, anchor *block.Block) (*Chain, error) {
	if genesis == nil || genesis.Index != 0 {
		return nil, errors.New("chain: genesis must have index 0")
	}
	if anchor == nil || anchor.Index == 0 {
		return nil, errors.New("chain: bootstrap anchor must be above genesis")
	}
	c := &Chain{
		genesis:  genesis,
		headers:  []Header{HeaderOf(anchor)},
		hdrBase:  anchor.Index,
		bodies:   []*block.Block{anchor},
		bodyBase: anchor.Index,
		byHash: map[block.Hash]uint64{
			genesis.Hash: 0,
			anchor.Hash:  anchor.Index,
		},
	}
	return c, nil
}

// Height returns the tip index (genesis = 0).
func (c *Chain) Height() uint64 { return c.headers[len(c.headers)-1].Index }

// Len returns the logical chain length including genesis and any pruned
// heights.
func (c *Chain) Len() int { return int(c.Height()) + 1 }

// BodyBase returns the lowest height whose body is retained. 0 means the
// replica is unpruned.
func (c *Chain) BodyBase() uint64 { return c.bodyBase }

// BodyCount returns the number of retained bodies (the body window size).
func (c *Chain) BodyCount() int { return len(c.bodies) }

// HeaderBase returns the lowest height on the header spine (0 unless the
// replica was bootstrapped from a snapshot).
func (c *Chain) HeaderBase() uint64 { return c.hdrBase }

// Tip returns the latest block; its body is always retained.
func (c *Chain) Tip() *block.Block { return c.bodies[len(c.bodies)-1] }

// Genesis returns block 0, which is retained even when pruned out of the
// body window.
func (c *Chain) Genesis() *block.Block { return c.genesis }

// At returns the block at the given index, or nil if its body is not
// retained (beyond the tip, pruned, or below a bootstrap anchor). Use Body
// when the caller needs to distinguish those cases.
func (c *Chain) At(index uint64) *block.Block {
	b, err := c.Body(index)
	if err != nil {
		return nil
	}
	return b
}

// Body returns the block body at the given index, ErrPrunedBody when the
// height is part of the chain but only its header remains, and
// ErrUnknownHeight when the height is beyond the tip.
func (c *Chain) Body(index uint64) (*block.Block, error) {
	if index > c.Height() {
		return nil, fmt.Errorf("%w: %d beyond tip %d", ErrUnknownHeight, index, c.Height())
	}
	if index == 0 && c.bodyBase > 0 {
		return c.genesis, nil
	}
	if index < c.bodyBase {
		return nil, fmt.Errorf("%w: height %d below body window base %d", ErrPrunedBody, index, c.bodyBase)
	}
	return c.bodies[index-c.bodyBase], nil
}

// HeaderAt returns the spine header at the given index. ok is false for
// heights beyond the tip or, on a bootstrapped replica, between genesis and
// the anchor.
func (c *Chain) HeaderAt(index uint64) (Header, bool) {
	if index == 0 {
		return HeaderOf(c.genesis), true
	}
	if index < c.hdrBase || index > c.Height() {
		return Header{}, false
	}
	return c.headers[index-c.hdrBase], true
}

// Headers returns a copy of the spine headers in [from, to], clamped to
// what the replica holds (genesis is excluded: it is not part of the
// headers slice on a bootstrapped replica).
func (c *Chain) Headers(from, to uint64) []Header {
	if from < c.hdrBase {
		from = c.hdrBase
	}
	if to > c.Height() {
		to = c.Height()
	}
	if from > to {
		return nil
	}
	out := make([]Header, to-from+1)
	copy(out, c.headers[from-c.hdrBase:to-c.hdrBase+1])
	return out
}

// BackfillSpine extends the header spine downward, e.g. from a persisted
// spine file after a snapshot restore. hdrs must end exactly at
// HeaderBase()-1, be contiguously indexed, internally hash-linked, and link
// into the existing spine (and into genesis if it reaches height 1).
func (c *Chain) BackfillSpine(hdrs []Header) error {
	if len(hdrs) == 0 {
		return nil
	}
	last := hdrs[len(hdrs)-1]
	if c.hdrBase == 0 || last.Index != c.hdrBase-1 {
		return fmt.Errorf("chain: backfill ends at %d, spine base is %d", last.Index, c.hdrBase)
	}
	if last.Hash != c.headers[0].PrevHash {
		return errors.New("chain: backfill does not link into spine")
	}
	for i, h := range hdrs {
		if h.Index != hdrs[0].Index+uint64(i) {
			return fmt.Errorf("chain: backfill non-contiguous at offset %d", i)
		}
		if i > 0 && h.PrevHash != hdrs[i-1].Hash {
			return fmt.Errorf("chain: backfill hash-link broken at height %d", h.Index)
		}
	}
	if hdrs[0].Index == 1 && hdrs[0].PrevHash != c.genesis.Hash {
		return errors.New("chain: backfill does not link to genesis")
	}
	if hdrs[0].Index == 0 {
		return errors.New("chain: backfill must not include genesis")
	}
	merged := make([]Header, 0, len(hdrs)+len(c.headers))
	merged = append(merged, hdrs...)
	merged = append(merged, c.headers...)
	c.headers = merged
	c.hdrBase = hdrs[0].Index
	for _, h := range hdrs {
		c.byHash[h.Hash] = h.Index
	}
	return nil
}

// Prune discards block bodies below the given height (exclusive), keeping
// the header spine intact. The tip body is always retained; genesis is
// retained separately and stays reachable via Genesis and Body(0). Returns
// the number of bodies discarded.
func (c *Chain) Prune(below uint64) int {
	if below > c.Height() {
		below = c.Height()
	}
	if below <= c.bodyBase {
		return 0
	}
	n := int(below - c.bodyBase)
	// Fresh backing array so the discarded prefix becomes collectable even
	// while callers hold slices from earlier Blocks() calls.
	kept := make([]*block.Block, len(c.bodies)-n)
	copy(kept, c.bodies[n:])
	c.bodies = kept
	c.bodyBase = below
	return n
}

// ByHash returns the block with the given hash, or nil when unknown or
// when only its header remains.
func (c *Chain) ByHash(h block.Hash) *block.Block {
	if i, ok := c.byHash[h]; ok {
		return c.At(i)
	}
	return nil
}

// HasHash reports whether the hash is on the chain (header or body).
func (c *Chain) HasHash(h block.Hash) bool {
	_, ok := c.byHash[h]
	return ok
}

// Blocks returns a copy of the retained body window, lowest height first.
// The first element is genesis only when BodyBase() == 0; use BodyBase to
// map slice offsets to heights on a pruned replica.
func (c *Chain) Blocks() []*block.Block {
	out := make([]*block.Block, len(c.bodies))
	copy(out, c.bodies)
	return out
}

// Add validates and appends a block, and returns how many blocks it
// appended: 1 when it appends b, 0 with an error otherwise. Behaviour by
// case:
//
//   - extends the tip: validated and appended.
//   - already known: ErrDuplicate.
//   - index beyond tip+1: ErrGap, without reading the block; the caller
//     fetches the blocks between the tip and it.
//   - index at or below tip with a different hash: ErrStale (fork shorter
//     than or equal to ours; longest-chain keeps ours). Use ReplaceSuffix
//     to adopt a longer fork.
//
// Invalid blocks (bad hash, bad link, bad signatures) return the underlying
// validation error and change nothing.
func (c *Chain) Add(b *block.Block) (appended int, err error) {
	if _, ok := c.byHash[b.Hash]; ok {
		return 0, ErrDuplicate
	}
	tip := c.Tip()
	switch {
	case b.Index == tip.Index+1:
		if err := b.VerifySelfCached(c.Sigs); err != nil {
			return 0, err
		}
		if err := b.VerifyLink(tip); err != nil {
			return 0, err
		}
		if c.PreAppend != nil {
			if err := c.PreAppend(tip, b); err != nil {
				return 0, err
			}
		}
		c.append(b)
		return 1, nil
	case b.Index > tip.Index+1:
		return 0, fmt.Errorf("%w: have %d, got %d", ErrGap, tip.Index, b.Index)
	default:
		return 0, fmt.Errorf("%w: index %d at height %d", ErrStale, b.Index, tip.Index)
	}
}

func (c *Chain) append(b *block.Block) {
	c.headers = append(c.headers, HeaderOf(b))
	c.bodies = append(c.bodies, b)
	c.byHash[b.Hash] = b.Index
	if c.PostAppend != nil {
		c.PostAppend(b)
	}
}

// AppendTrusted appends a block verifying only the link to the current
// tip (index, previous hash, timestamp monotonicity, PoSHash chaining),
// skipping the content re-verification of VerifySelf. It exists for
// replaying locally-persisted blocks whose content integrity the store
// has already established (WAL record CRC plus hash checks); network
// blocks must go through Add. PreAppend and PostAppend hooks run as for a
// normal append.
func (c *Chain) AppendTrusted(b *block.Block) error {
	if _, ok := c.byHash[b.Hash]; ok {
		return ErrDuplicate
	}
	tip := c.Tip()
	if err := b.VerifyLink(tip); err != nil {
		return err
	}
	if c.PreAppend != nil {
		if err := c.PreAppend(tip, b); err != nil {
			return err
		}
	}
	c.append(b)
	return nil
}

// Validate checks a full chain from genesis: indices, hashes, links and
// metadata signatures. It trusts no node's signature cache.
func Validate(blocks []*block.Block) error {
	if len(blocks) == 0 {
		return errors.New("chain: empty")
	}
	if blocks[0].Index != 0 {
		return errors.New("chain: first block is not genesis")
	}
	for i, b := range blocks {
		if err := b.VerifySelf(); err != nil {
			return fmt.Errorf("chain: block %d: %w", i, err)
		}
		if i > 0 {
			if err := b.VerifyLink(blocks[i-1]); err != nil {
				return fmt.Errorf("chain: block %d: %w", i, err)
			}
		}
	}
	return nil
}
