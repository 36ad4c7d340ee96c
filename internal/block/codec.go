package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/meta"
)

// Wire codec for blocks. The encoding is the canonical hash input followed
// by the 32-byte block hash, so Decode can verify integrity for free. Used
// by the live p2p transport; the in-process simulation passes pointers and
// only uses EncodedSize for accounting.

var errTruncated = errors.New("block: truncated input")

// Encode serializes the block.
func (b *Block) Encode() []byte {
	out := b.appendHashInput(make([]byte, 0, b.EncodedSize()))
	return append(out, b.Hash[:]...)
}

type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.err = errTruncated
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) hash() (h Hash) {
	copy(h[:], r.take(len(h)))
	return h
}

func (r *reader) intList(maxLen int) []int {
	n := int(r.uint64())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxLen {
		r.err = fmt.Errorf("block: list length %d exceeds cap %d", n, maxLen)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(r.uint64()))
	}
	return out
}

// maxListLen bounds decoded list lengths against corrupt length prefixes.
const maxListLen = 1 << 16

// header reads what appendHeader wrote.
func (r *reader) header(b *Block) {
	b.Index = r.uint64()
	b.PrevHash = r.hash()
	b.Timestamp = time.Duration(r.uint64())
	copy(b.Miner[:], r.take(len(b.Miner)))
	b.PoSHash = r.hash()
	b.B = math.Float64frombits(r.uint64())
	b.MinedAfter = r.uint64()
}

// tail reads what appendTail wrote plus the trailing block hash, and
// rejects bytes past it.
func (r *reader) tail(b *Block) error {
	b.StoringNodes = r.intList(maxListLen)
	b.PrevStoringNodes = r.intList(maxListLen)
	b.RecentAssignees = r.intList(maxListLen)
	b.Hash = r.hash()
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("block: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// Decode parses a block encoded by Encode and verifies that the embedded
// hash matches the content.
func Decode(data []byte) (*Block, error) {
	r := &reader{b: data}
	b := &Block{}
	r.header(b)
	nItems := int(r.uint64())
	if r.err == nil && (nItems < 0 || nItems > maxListLen) {
		return nil, fmt.Errorf("block: absurd item count %d", nItems)
	}
	for i := 0; i < nItems && r.err == nil; i++ {
		itemLen := int(r.uint64())
		raw := r.take(itemLen)
		if r.err != nil {
			break
		}
		it, err := meta.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("block: item %d: %w", i, err)
		}
		b.Items = append(b.Items, it)
	}
	if err := r.tail(b); err != nil {
		return nil, err
	}
	if b.ComputeHash() != b.Hash {
		return nil, ErrBadHash
	}
	return b, nil
}

// ItemRef stands for one packed item in a Compact block.
type ItemRef struct {
	ID           meta.DataID
	StoringNodes []int
}

// Compact is a block with every item replaced by its data ID and the
// storing nodes the miner assigned — the one part of a packed item its
// producer did not sign and no pool can supply (DESIGN.md §13.1). Wire
// layout: header, item count, per item (ID, storing-node list), the three
// node lists, block hash.
type Compact struct {
	// Head holds every field of the block except Items. Head.Hash is the
	// sender's claim: nothing checks it until the rebuilt block is verified.
	Head Block
	// Refs are the packed items in block order.
	Refs []ItemRef
}

// minRefSize is the encoded size of a reference with no storing nodes.
const minRefSize = len(meta.DataID{}) + 8

// EncodeCompact serializes the block in compact form.
func (b *Block) EncodeCompact() []byte {
	n := b.EncodedSize()
	for _, it := range b.Items {
		n -= 8 + it.EncodedSize() - minRefSize - 8*len(it.StoringNodes) // what a reference leaves out
	}
	out := b.appendHeader(make([]byte, 0, n))
	out = binary.BigEndian.AppendUint64(out, uint64(len(b.Items)))
	for _, it := range b.Items {
		out = append(out, it.ID[:]...)
		out = appendList(out, it.StoringNodes)
	}
	return append(b.appendTail(out), b.Hash[:]...)
}

// DecodeCompact parses a block encoded by EncodeCompact. The item count is
// checked against the bytes that remain before anything is allocated for it.
func DecodeCompact(data []byte) (*Compact, error) {
	r := &reader{b: data}
	c := &Compact{}
	r.header(&c.Head)
	n := r.uint64()
	if r.err != nil {
		return nil, r.err
	}
	if n > maxListLen || n > uint64((len(data)-r.off)/minRefSize) {
		return nil, fmt.Errorf("block: compact item count %d exceeds payload", n)
	}
	c.Refs = make([]ItemRef, n)
	for i := range c.Refs {
		copy(c.Refs[i].ID[:], r.take(len(meta.DataID{})))
		c.Refs[i].StoringNodes = r.intList(maxListLen)
	}
	if err := r.tail(&c.Head); err != nil {
		return nil, err
	}
	return c, nil
}

// Rebuild assembles the full block from the items resolve returns for the
// referenced IDs (nil = unknown): each is cloned and given the miner's
// storing nodes. If any ID is unknown it returns nil and the unknown IDs.
// The rebuilt block carries the claimed hash unchecked, so it must go
// through VerifySelf like any block off the wire: a resolver that returned
// different bytes than the miner packed shows up there as ErrBadHash.
func (c *Compact) Rebuild(resolve func(meta.DataID) *meta.Item) (*Block, []meta.DataID) {
	b := c.Head
	b.Items = make([]*meta.Item, len(c.Refs))
	var missing []meta.DataID
	for i, ref := range c.Refs {
		it := resolve(ref.ID)
		if it == nil {
			missing = append(missing, ref.ID)
		} else if missing == nil { // once one is missing nothing will be built
			b.Items[i] = it.Clone()
			b.Items[i].StoringNodes = ref.StoringNodes
		}
	}
	if missing != nil {
		return nil, missing
	}
	return &b, nil
}
