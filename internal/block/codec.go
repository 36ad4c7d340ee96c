package block

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/meta"
	"repro/internal/wire"
)

// Wire codec for blocks: what the p2p transport, the WAL and snapshots
// carry (DESIGN.md "Wire format"). Same fields in the same order as the
// hash input, but heights, durations, counts, lengths and node indices are
// varints and items travel in their own wire form, back to back, followed
// by the 32-byte block hash. Decode recomputes the hash over the canonical
// bytes, so integrity comes for free. The in-process simulation passes
// pointers and only uses EncodedSize for accounting.

// headerSize is the length of what appendHeader appends.
func (b *Block) headerSize() int {
	return wire.UvarintLen(b.Index) + len(b.PrevHash) + wire.UvarintLen(uint64(b.Timestamp)) +
		len(b.Miner) + len(b.PoSHash) + 8 + wire.UvarintLen(b.MinedAfter)
}

// appendHeader appends the fields every encoding starts with.
func (b *Block) appendHeader(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, b.Index)
	dst = append(dst, b.PrevHash[:]...)
	dst = binary.AppendUvarint(dst, uint64(b.Timestamp))
	dst = append(dst, b.Miner[:]...)
	dst = append(dst, b.PoSHash[:]...)
	dst = wire.AppendFloat64(dst, b.B)
	return binary.AppendUvarint(dst, b.MinedAfter)
}

// tailSize is the length of what appendTail appends.
func (b *Block) tailSize() int {
	return wire.IntsLen(b.StoringNodes) + wire.IntsLen(b.PrevStoringNodes) + wire.IntsLen(b.RecentAssignees) + len(b.Hash)
}

// appendTail appends the three node lists that follow the items, then the
// block hash.
func (b *Block) appendTail(dst []byte) []byte {
	dst = wire.AppendInts(dst, b.StoringNodes)
	dst = wire.AppendInts(dst, b.PrevStoringNodes)
	dst = wire.AppendInts(dst, b.RecentAssignees)
	return append(dst, b.Hash[:]...)
}

// EncodedHash reads the block hash off an encoded block, full or compact,
// without decoding it (the hash is the last field of both layouts); false if
// data is too short. The hash is the sender's claim: it names the block for
// dedup, and only VerifySelf on the decoded block proves it.
func EncodedHash(data []byte) (Hash, bool) {
	if len(data) < len(Hash{}) {
		return Hash{}, false
	}
	return Hash(data[len(data)-len(Hash{}):]), true
}

// EncodedSize is the wire size of the block in bytes (len(Encode())). Used
// for network and storage accounting (paper: average block size under
// 10 KB).
func (b *Block) EncodedSize() int {
	n := b.headerSize() + wire.UvarintLen(uint64(len(b.Items))) + b.tailSize()
	for _, it := range b.Items {
		n += it.EncodedSize()
	}
	return n
}

// Encode serializes the block.
func (b *Block) Encode() []byte {
	out := b.appendHeader(make([]byte, 0, b.EncodedSize()))
	out = binary.AppendUvarint(out, uint64(len(b.Items)))
	for _, it := range b.Items {
		out = it.AppendEncode(out)
	}
	return b.appendTail(out)
}

// readHeader reads what appendHeader wrote.
func readHeader(r *wire.Reader, b *Block) {
	b.Index = r.Uvarint()
	b.PrevHash = r.Hash()
	b.Timestamp = time.Duration(r.Uvarint())
	b.Miner = r.Hash()
	b.PoSHash = r.Hash()
	b.B = r.Float64()
	b.MinedAfter = r.Uvarint()
}

// readTail reads what appendTail wrote and rejects bytes past it.
func readTail(r *wire.Reader, b *Block) error {
	b.StoringNodes = r.Ints()
	b.PrevStoringNodes = r.Ints()
	b.RecentAssignees = r.Ints()
	b.Hash = r.Hash()
	if err := r.Done(); err != nil {
		return fmt.Errorf("block: %w", err)
	}
	return nil
}

// Decode parses a block encoded by Encode and verifies that the embedded
// hash matches the content.
func Decode(data []byte) (*Block, error) {
	r := wire.NewReader(data)
	b := &Block{}
	readHeader(r, b)
	if n := r.Count(meta.MinEncodedSize); n > 0 {
		b.Items = make([]*meta.Item, n)
	}
	for i := range b.Items {
		if b.Items[i] = meta.Read(r); r.Err() != nil {
			break
		}
	}
	if err := readTail(r, b); err != nil {
		return nil, err
	}
	if b.ComputeHash() != b.Hash {
		return nil, ErrBadHash
	}
	return b, nil
}

// ItemRef stands for one packed item in a Compact block.
type ItemRef struct {
	ID           meta.ShortID
	StoringNodes []int
}

// Compact is a block with every item replaced by its short ID and the
// storing nodes the miner assigned — the one part of a packed item its
// producer did not sign and no pool can supply (DESIGN.md §13.1). Wire
// layout: header, item count, per item (8-byte short ID, storing-node
// list), the three node lists, block hash.
type Compact struct {
	// Head holds every field of the block except Items. Head.Hash is the
	// sender's claim: nothing checks it until the rebuilt block is verified.
	Head Block
	// Refs are the packed items in block order.
	Refs []ItemRef
}

// minRefSize is the encoded size of a reference with no storing nodes.
const minRefSize = len(meta.ShortID{}) + 1

// EncodeCompact serializes the block in compact form.
func (b *Block) EncodeCompact() []byte {
	n := b.headerSize() + wire.UvarintLen(uint64(len(b.Items))) + b.tailSize()
	for _, it := range b.Items {
		n += len(meta.ShortID{}) + wire.IntsLen(it.StoringNodes)
	}
	out := b.appendHeader(make([]byte, 0, n))
	out = binary.AppendUvarint(out, uint64(len(b.Items)))
	for _, it := range b.Items {
		out = append(out, it.ID[:len(meta.ShortID{})]...)
		out = wire.AppendInts(out, it.StoringNodes)
	}
	return b.appendTail(out)
}

// DecodeCompact parses a block encoded by EncodeCompact. The item count is
// checked against the bytes that remain before anything is allocated for it.
func DecodeCompact(data []byte) (*Compact, error) {
	r := wire.NewReader(data)
	c := &Compact{}
	readHeader(r, &c.Head)
	c.Refs = make([]ItemRef, r.Count(minRefSize))
	for i := range c.Refs {
		copy(c.Refs[i].ID[:], r.Take(len(meta.ShortID{})))
		c.Refs[i].StoringNodes = r.Ints()
	}
	if err := readTail(r, &c.Head); err != nil {
		return nil, err
	}
	return c, nil
}

// Rebuild assembles the full block from the items resolve returns for the
// referenced short IDs (nil = unknown): each is cloned and given the miner's
// storing nodes. If any is unknown it returns nil and the unknown short IDs.
// The rebuilt block carries the claimed hash unchecked, so it must go
// through VerifySelf like any block off the wire: a resolver that returned
// different bytes than the miner packed — another item under the same
// prefix included — shows up there as ErrBadHash.
func (c *Compact) Rebuild(resolve func(meta.ShortID) *meta.Item) (*Block, []meta.ShortID) {
	b := c.Head
	b.Items = make([]*meta.Item, len(c.Refs))
	var missing []meta.ShortID
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
