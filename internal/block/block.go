// Package block defines the blocks of the edge blockchain (Fig. 2).
//
// A block carries the usual linkage fields (index, previous hash,
// timestamp, current hash) plus the edge-specific components: the metadata
// items it packs, the storage-allocation decisions the miner computed (who
// stores each data item, who stores this block, who caches one more recent
// block), the PoSHash used by the Proof-of-Stake lottery of Section V, and
// the amendment number B of eq. (14).
package block

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/identity"
	"repro/internal/meta"
)

// Hash is a SHA-256 block hash.
type Hash [sha256.Size]byte

// String returns the hex form of the hash.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// Short returns an abbreviated hex prefix for logs.
func (h Hash) Short() string { return hex.EncodeToString(h[:4]) }

// IsZero reports whether the hash is unset.
func (h Hash) IsZero() bool { return h == Hash{} }

// Block is one block of the chain. Fields are exported for test
// construction; use Builder or the core mining path to create valid blocks.
type Block struct {
	// Index is the height of the block; the genesis block has index 0.
	Index uint64
	// PrevHash links to the previous block.
	PrevHash Hash
	// Timestamp is the simulated creation time.
	Timestamp time.Duration
	// Miner is the account that mined this block (zero for genesis).
	Miner identity.Address
	// PoSHash is the running PoS hash of eq. (7): every node derives its
	// next hit from this value and its own account address.
	PoSHash Hash
	// B is the amendment number of eq. (14) that the miner used; it is
	// recomputed and checked by validators.
	B float64
	// MinedAfter is t in eq. (8): whole seconds elapsed since the previous
	// block's timestamp when the miner's hit condition held.
	MinedAfter uint64
	// Items are the metadata items packed into this block, each annotated
	// with its assigned storing nodes (Section IV-B).
	Items []*meta.Item
	// StoringNodes lists the node IDs assigned to store this block's body.
	StoringNodes []int
	// PrevStoringNodes repeats where the previous block is stored so a
	// node can walk the chain backwards fetching bodies (Section IV-B).
	PrevStoringNodes []int
	// RecentAssignees lists nodes assigned to cache one more recent block
	// in their FIFO recent cache (Section IV-C).
	RecentAssignees []int
	// Hash is the block's own hash over all fields above.
	Hash Hash
}

// Validation errors.
var (
	ErrBadHash      = errors.New("block: stored hash does not match content")
	ErrBadLink      = errors.New("block: previous-hash link mismatch")
	ErrBadIndex     = errors.New("block: index is not previous index + 1")
	ErrBadTimestamp = errors.New("block: timestamp not after previous block")
	ErrBadPoSHash   = errors.New("block: PoSHash does not chain from previous block")
)

func appendList(dst []byte, ns []int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(n)))
	}
	return dst
}

// hashInputSize is the length of what appendHashInput appends, computed
// from the field lengths.
func (b *Block) hashInputSize() int {
	n := 8 + len(b.PrevHash) + 8 + len(b.Miner) + len(b.PoSHash) + 8 + 8 + 8
	for _, it := range b.Items {
		n += 8 + it.CanonicalSize()
	}
	return n + 8*(3+len(b.StoringNodes)+len(b.PrevStoringNodes)+len(b.RecentAssignees))
}

// appendHashInput appends the canonical byte encoding of everything the
// block hash covers (all fields except Hash itself): fixed width, write-only
// and frozen, because every block hash on every chain is taken over it
// (DESIGN.md "Wire format"). What travels and is stored is codec.go's.
func (b *Block) appendHashInput(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, b.Index)
	dst = append(dst, b.PrevHash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(b.Timestamp))
	dst = append(dst, b.Miner[:]...)
	dst = append(dst, b.PoSHash[:]...)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.B))
	dst = binary.BigEndian.AppendUint64(dst, b.MinedAfter)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(b.Items)))
	for _, it := range b.Items {
		dst = binary.BigEndian.AppendUint64(dst, uint64(it.CanonicalSize()))
		dst = it.AppendCanonical(dst)
	}
	dst = appendList(dst, b.StoringNodes)
	dst = appendList(dst, b.PrevStoringNodes)
	return appendList(dst, b.RecentAssignees)
}

// ComputeHash returns the hash of the block's current content.
func (b *Block) ComputeHash() Hash {
	return Hash(sha256.Sum256(b.appendHashInput(make([]byte, 0, b.hashInputSize()))))
}

// Seal fills the Hash field from the current content.
func (b *Block) Seal() { b.Hash = b.ComputeHash() }

// NextPoSHash computes POSHash(t+1, i) = Hash[POSHash(t) + Account_i]
// (eq. 7) for the account that mines the block after this one.
func (b *Block) NextPoSHash(account identity.Address) Hash {
	var buf [2 * sha256.Size]byte
	copy(buf[:sha256.Size], b.PoSHash[:])
	copy(buf[sha256.Size:], account[:])
	return Hash(sha256.Sum256(buf[:]))
}

// VerifySelf checks internal consistency: the stored hash matches the
// content and every packed metadata item carries a valid producer
// signature.
func (b *Block) VerifySelf() error { return b.VerifySelfCached(nil) }

// VerifySelfCached is VerifySelf with item signatures checked through a
// node's verified-signature cache (nil = no cache). The block hash is
// recomputed on every call: StoringNodes lie outside the producer
// signature, so only the hash covers them.
func (b *Block) VerifySelfCached(sigs *meta.SigCache) error {
	if b.ComputeHash() != b.Hash {
		return ErrBadHash
	}
	for _, it := range b.Items {
		if err := it.VerifyCached(sigs); err != nil {
			return fmt.Errorf("block %d: %w", b.Index, err)
		}
	}
	return nil
}

// VerifyLink checks that b correctly extends prev: index, hash link,
// timestamp monotonicity and the PoSHash chaining rule of eq. (7).
func (b *Block) VerifyLink(prev *Block) error {
	if b.Index != prev.Index+1 {
		return fmt.Errorf("%w: got %d after %d", ErrBadIndex, b.Index, prev.Index)
	}
	if b.PrevHash != prev.Hash {
		return ErrBadLink
	}
	if b.Timestamp < prev.Timestamp {
		return fmt.Errorf("%w: %v before %v", ErrBadTimestamp, b.Timestamp, prev.Timestamp)
	}
	if !b.Miner.IsZero() && b.PoSHash != prev.NextPoSHash(b.Miner) {
		return ErrBadPoSHash
	}
	return nil
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	cp := *b
	cp.Items = make([]*meta.Item, len(b.Items))
	for i, it := range b.Items {
		cp.Items[i] = it.Clone()
	}
	cp.StoringNodes = append([]int(nil), b.StoringNodes...)
	cp.PrevStoringNodes = append([]int(nil), b.PrevStoringNodes...)
	cp.RecentAssignees = append([]int(nil), b.RecentAssignees...)
	return &cp
}

// Genesis builds the genesis block. The seed diversifies the initial
// PoSHash between simulations.
func Genesis(seed int64) *Block {
	var ph Hash
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(seed))
	ph = Hash(sha256.Sum256(b[:]))
	g := &Block{
		Index:     0,
		Timestamp: 0,
		PoSHash:   ph,
		B:         0,
	}
	g.Seal()
	return g
}
