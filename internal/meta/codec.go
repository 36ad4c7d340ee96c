package meta

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/identity"
	"repro/internal/wire"
)

// An item has two byte forms (DESIGN.md "Wire format").
//
// The canonical form is fixed width and write-only: AppendSigningBytes is
// what the producer signs, and AppendCanonical — the signing bytes, the
// signature and the storing nodes — is what a block hashes for each item it
// packs. Nothing parses it, and it never changes, because every data ID,
// signature and block hash on every chain depends on it.
//
// The wire form is what Encode writes and Decode reads, on the network, in
// the WAL and in snapshots. Counts, lengths, durations, sizes and node
// indices are varints and Producer is left out: it is the SHA-256 of
// ProducerPub, so Decode recomputes it. An item whose Producer is not the
// hash of its key therefore has no wire form — it could never verify. An
// unsigned item (empty key and signature; both keep their one-byte length
// so the codec has no signedness precondition) round-trips with a zero
// Producer.

// CanonicalSize is the length of what AppendCanonical appends.
func (it *Item) CanonicalSize() int {
	return it.signingSize() + 4 + len(it.Signature) + 8 + 8*len(it.StoringNodes)
}

// AppendCanonical appends the fixed-width form of the full item that block
// hashes cover.
func (it *Item) AppendCanonical(dst []byte) []byte {
	dst = it.AppendSigningBytes(dst)
	dst = appendBytes(dst, it.Signature)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(it.StoringNodes)))
	for _, n := range it.StoringNodes {
		dst = binary.BigEndian.AppendUint64(dst, uint64(int64(n)))
	}
	return dst
}

// MinEncodedSize is the wire size of the zero item: the ID, two
// coordinates and nine one-byte words.
const MinEncodedSize = len(DataID{}) + 8 + 8 + 9

// EncodedSize is the wire size of the item in bytes (len(Encode())), used
// for network accounting and block-size accounting.
func (it *Item) EncodedSize() int {
	return len(it.ID) + wire.BytesLen(len(it.Type)) + wire.UvarintLen(uint64(it.Produced)) + 8 + 8 +
		wire.BytesLen(len(it.LocationName)) + wire.BytesLen(len(it.ProducerPub)) +
		wire.UvarintLen(uint64(it.ValidFor)) + wire.BytesLen(len(it.Properties)) +
		wire.UvarintLen(uint64(it.DataSize)) + wire.BytesLen(len(it.Signature)) + wire.IntsLen(it.StoringNodes)
}

// AppendEncode appends the wire form of the full item (including signature
// and storing nodes) to dst. The ID comes first: EncodedShortID reads it off
// without decoding.
func (it *Item) AppendEncode(dst []byte) []byte {
	dst = append(dst, it.ID[:]...)
	dst = wire.AppendBytes(dst, it.Type)
	dst = binary.AppendUvarint(dst, uint64(it.Produced))
	dst = wire.AppendFloat64(dst, it.Location.X)
	dst = wire.AppendFloat64(dst, it.Location.Y)
	dst = wire.AppendBytes(dst, it.LocationName)
	dst = wire.AppendBytes(dst, it.ProducerPub)
	dst = binary.AppendUvarint(dst, uint64(it.ValidFor))
	dst = wire.AppendBytes(dst, it.Properties)
	dst = binary.AppendUvarint(dst, uint64(it.DataSize))
	dst = wire.AppendBytes(dst, it.Signature)
	return wire.AppendInts(dst, it.StoringNodes)
}

// Encode serializes the full item in wire form.
func (it *Item) Encode() []byte {
	return it.AppendEncode(make([]byte, 0, it.EncodedSize()))
}

// Decode parses an item encoded by Encode.
func Decode(b []byte) (*Item, error) {
	r := wire.NewReader(b)
	it := Read(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("meta: decode: %w", err)
	}
	return it, nil
}

// Read parses one item in wire form at the cursor — items are
// self-delimiting, so a block packs them back to back. A failure sticks in
// r and the item returned is then meaningless.
func Read(r *wire.Reader) *Item {
	it := &Item{}
	it.ID = r.Hash()
	it.Type = string(r.Bytes())
	it.Produced = time.Duration(r.Uvarint())
	it.Location.X = r.Float64()
	it.Location.Y = r.Float64()
	it.LocationName = string(r.Bytes())
	pub := r.Bytes()
	it.ValidFor = time.Duration(r.Uvarint())
	it.Properties = string(r.Bytes())
	it.DataSize = int(r.Uvarint())
	sig := r.Bytes()
	it.StoringNodes = r.Ints()
	// Key and signature share one allocation; capping the key's slice keeps
	// an append to it from reaching the signature.
	buf := append(append(make([]byte, 0, len(pub)+len(sig)), pub...), sig...)
	if len(pub) > 0 {
		it.ProducerPub = buf[:len(pub):len(pub)]
		it.Producer = identity.AddressOf(it.ProducerPub)
	}
	if len(sig) > 0 {
		it.Signature = buf[len(pub):]
	}
	return it
}
