package meta

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
// the WAL and in snapshots. A flags byte after the ID names the optional
// fields that follow, so a field at its zero value costs no byte. Counts,
// lengths, durations, sizes and node indices are varints; the key and the
// signature are fixed width with no length; Producer is left out: it is the
// SHA-256 of ProducerPub, so Decode recomputes it. An item therefore has no
// wire form when its Producer is not the hash of its key (it could never
// verify), or when its key is neither empty nor ed25519.PublicKeySize bytes
// or its signature neither empty nor ed25519.SignatureSize bytes (Sign and
// Decode make no other). An unsigned item round-trips with a zero Producer.

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

// Flag bits of the wire form, one per optional field. A set bit means the
// field follows; a clear one that it holds its zero value. Read refuses
// flags other than those of the item it decoded — a bit outside knownFlags,
// or a set bit whose field is zero after all — so the bytes it accepts
// re-encode to themselves.
const (
	hasLocation     = 1 << iota // the IEEE bits of X or Y are non-zero
	hasLocationName             // non-empty
	hasValidFor                 // non-zero
	hasProperties               // non-empty
	hasStoringNodes             // non-empty
	hasKey                      // ed25519.PublicKeySize bytes, no length
	hasSignature                // ed25519.SignatureSize bytes, no length
	knownFlags      = 1<<iota - 1
)

var errFlags = errors.New("meta: decode: flags name an unknown or empty field")

// MinEncodedSize is the wire size of the zero item: the ID, the flags byte
// and three one-byte words (the type's length, the production time and the
// data size).
const MinEncodedSize = len(DataID{}) + 4

// wireFlags returns the flags byte of the item's wire form.
func (it *Item) wireFlags() byte {
	var f byte
	if math.Float64bits(it.Location.X)|math.Float64bits(it.Location.Y) != 0 {
		f |= hasLocation
	}
	if it.LocationName != "" {
		f |= hasLocationName
	}
	if it.ValidFor != 0 {
		f |= hasValidFor
	}
	if it.Properties != "" {
		f |= hasProperties
	}
	if len(it.StoringNodes) > 0 {
		f |= hasStoringNodes
	}
	if len(it.ProducerPub) > 0 {
		f |= hasKey
	}
	if len(it.Signature) > 0 {
		f |= hasSignature
	}
	return f
}

// EncodedSize is the wire size of the item in bytes (len(Encode())), used
// for network accounting and block-size accounting.
func (it *Item) EncodedSize() int {
	n := len(it.ID) + 1 + wire.BytesLen(len(it.Type)) + wire.UvarintLen(uint64(it.Produced)) +
		len(it.ProducerPub) + wire.UvarintLen(uint64(it.DataSize)) + len(it.Signature)
	f := it.wireFlags()
	opt := func(bit byte, size int) {
		if f&bit != 0 {
			n += size
		}
	}
	opt(hasLocation, 8+8)
	opt(hasLocationName, wire.BytesLen(len(it.LocationName)))
	opt(hasValidFor, wire.UvarintLen(uint64(it.ValidFor)))
	opt(hasProperties, wire.BytesLen(len(it.Properties)))
	opt(hasStoringNodes, wire.IntsLen(it.StoringNodes))
	return n
}

// AppendEncode appends the wire form of the full item (including signature
// and storing nodes) to dst. The ID comes first: EncodedShortID reads it off
// without decoding. The key must be empty or ed25519.PublicKeySize bytes and
// the signature empty or ed25519.SignatureSize bytes: other lengths have no
// wire form.
func (it *Item) AppendEncode(dst []byte) []byte {
	f := it.wireFlags()
	dst = append(dst, it.ID[:]...)
	dst = append(dst, f)
	dst = wire.AppendBytes(dst, it.Type)
	dst = binary.AppendUvarint(dst, uint64(it.Produced))
	if f&hasLocation != 0 {
		dst = wire.AppendFloat64(dst, it.Location.X)
		dst = wire.AppendFloat64(dst, it.Location.Y)
	}
	if f&hasLocationName != 0 {
		dst = wire.AppendBytes(dst, it.LocationName)
	}
	dst = append(dst, it.ProducerPub...)
	if f&hasValidFor != 0 {
		dst = binary.AppendUvarint(dst, uint64(it.ValidFor))
	}
	if f&hasProperties != 0 {
		dst = wire.AppendBytes(dst, it.Properties)
	}
	dst = binary.AppendUvarint(dst, uint64(it.DataSize))
	dst = append(dst, it.Signature...)
	if f&hasStoringNodes != 0 {
		dst = wire.AppendInts(dst, it.StoringNodes)
	}
	return dst
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
	var f byte
	if b := r.Take(1); b != nil {
		f = b[0]
	}
	it.Type = string(r.Bytes())
	it.Produced = time.Duration(r.Uvarint())
	if f&hasLocation != 0 {
		it.Location.X = r.Float64()
		it.Location.Y = r.Float64()
	}
	if f&hasLocationName != 0 {
		it.LocationName = string(r.Bytes())
	}
	var pub, sig []byte
	if f&hasKey != 0 {
		pub = r.Take(ed25519.PublicKeySize)
	}
	if f&hasValidFor != 0 {
		it.ValidFor = time.Duration(r.Uvarint())
	}
	if f&hasProperties != 0 {
		it.Properties = string(r.Bytes())
	}
	it.DataSize = int(r.Uvarint())
	if f&hasSignature != 0 {
		sig = r.Take(ed25519.SignatureSize)
	}
	if f&hasStoringNodes != 0 {
		it.StoringNodes = r.Ints()
	}
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
	if it.wireFlags() != f {
		r.Fail(errFlags)
	}
	return it
}
