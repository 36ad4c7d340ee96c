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

// Decode parses a block encoded by Encode and verifies that the embedded
// hash matches the content.
func Decode(data []byte) (*Block, error) {
	r := &reader{b: data}
	b := &Block{}
	b.Index = r.uint64()
	b.PrevHash = r.hash()
	b.Timestamp = time.Duration(r.uint64())
	copy(b.Miner[:], r.take(len(b.Miner)))
	b.PoSHash = r.hash()
	b.B = math.Float64frombits(r.uint64())
	b.MinedAfter = r.uint64()
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
	b.StoringNodes = r.intList(maxListLen)
	b.PrevStoringNodes = r.intList(maxListLen)
	b.RecentAssignees = r.intList(maxListLen)
	b.Hash = r.hash()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("block: %d trailing bytes", len(data)-r.off)
	}
	if b.ComputeHash() != b.Hash {
		return nil, ErrBadHash
	}
	return b, nil
}
