// Package meta implements metadata items (Section III-B).
//
// A metadata item is the small record stored in blocks in place of the
// actual data item. It carries the attributes from the paper's examples —
// data type, production time, location, producer account with signature,
// storing nodes, valid time, and free-form properties — plus the content
// hash and size needed to fetch and verify the real data.
//
// The producer signs every attribute except the storing-node list: storing
// nodes are computed by the network after the metadata is broadcast
// (Section IV-B), so they cannot be part of the producer's signature.
package meta

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/identity"
)

// DataID identifies a data item by the SHA-256 hash of its content.
type DataID [sha256.Size]byte

// String returns the hex form of the ID.
func (d DataID) String() string { return hex.EncodeToString(d[:]) }

// Short returns an abbreviated hex prefix for logs.
func (d DataID) Short() string { return hex.EncodeToString(d[:4]) }

// IsZero reports whether the ID is unset.
func (d DataID) IsZero() bool { return d == DataID{} }

// ShortID is the first 8 bytes of a DataID: enough to say "you may lack
// this" on the wire, never enough to admit anything. Two items may share
// one, by accident or by design, so whoever acts on a ShortID must survive
// it naming the wrong item.
type ShortID [8]byte

// ShortID returns the ID's 8-byte prefix.
func (d DataID) ShortID() ShortID { return ShortID(d[:len(ShortID{})]) }

// EncodedShortID reads the short ID off an encoded item without decoding it
// (the ID is the first field of the layout); false if b is too short.
func EncodedShortID(b []byte) (ShortID, bool) {
	if len(b) < len(ShortID{}) {
		return ShortID{}, false
	}
	return ShortID(b[:len(ShortID{})]), true
}

// HashData computes the DataID for raw content.
func HashData(content []byte) DataID { return DataID(sha256.Sum256(content)) }

// Item is one metadata record. The zero value is not valid; use the
// producer-side constructor in package core or fill the fields and Sign.
type Item struct {
	// ID is the content hash of the data item this metadata describes.
	ID DataID
	// Type is the slash-separated data type, e.g. "AirQuality/PM2.5".
	Type string
	// Produced is the (simulated) production time.
	Produced time.Duration
	// Location is where the data was produced.
	Location geo.Point
	// LocationName is the human-readable place, e.g. "NewYork,NY".
	LocationName string
	// Producer is the account of the producing node.
	Producer identity.Address
	// ProducerPub is the producer's public key, spread with blocks so any
	// node can validate integrity (Section III-B2).
	ProducerPub ed25519.PublicKey
	// Signature is the producer's signature over SigningBytes.
	Signature []byte
	// StoringNodes lists the node IDs assigned to store the data item.
	// Filled by the miner when packing the block; excluded from the
	// producer signature.
	StoringNodes []int
	// ValidFor is how long the data remains valid (paper: minutes).
	ValidFor time.Duration
	// Properties is free-form extra information ("Camera", a public key...).
	Properties string
	// DataSize is the size of the actual data item in bytes.
	DataSize int
}

var (
	// ErrUnsigned is returned when verifying an item without a signature.
	ErrUnsigned = errors.New("meta: item is not signed")
	// ErrExpired is returned by ValidateAt for items past their valid time.
	ErrExpired = errors.New("meta: item expired")
)

func appendString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// signingSize is len(SigningBytes()) computed from the field lengths.
func (it *Item) signingSize() int {
	return len(it.ID) + 4 + len(it.Type) + 8 + 8 + 8 + 4 + len(it.LocationName) +
		len(it.Producer) + 4 + len(it.ProducerPub) + 8 + 4 + len(it.Properties) + 8
}

// AppendSigningBytes appends the canonical encoding of every
// producer-attested field (everything except Signature and StoringNodes)
// to dst. Positions are non-negative field coordinates, encoded as their
// IEEE bits.
func (it *Item) AppendSigningBytes(dst []byte) []byte {
	dst = append(dst, it.ID[:]...)
	dst = appendString(dst, it.Type)
	dst = binary.BigEndian.AppendUint64(dst, uint64(it.Produced))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Location.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.Location.Y))
	dst = appendString(dst, it.LocationName)
	dst = append(dst, it.Producer[:]...)
	dst = appendBytes(dst, it.ProducerPub)
	dst = binary.BigEndian.AppendUint64(dst, uint64(it.ValidFor))
	dst = appendString(dst, it.Properties)
	return binary.BigEndian.AppendUint64(dst, uint64(it.DataSize))
}

// SigningBytes returns the bytes the producer signs.
func (it *Item) SigningBytes() []byte {
	return it.AppendSigningBytes(make([]byte, 0, it.signingSize()))
}

// Sign fills Producer, ProducerPub and Signature using the identity.
func (it *Item) Sign(id *identity.Identity) {
	it.Producer = id.Address()
	it.ProducerPub = append(ed25519.PublicKey(nil), id.PublicKey()...)
	it.Signature = id.Sign(it.SigningBytes())
}

// Verify checks the producer signature and the key/address binding.
func (it *Item) Verify() error {
	if len(it.Signature) == 0 {
		return ErrUnsigned
	}
	return it.verifyBytes(it.SigningBytes())
}

// verifyBytes checks Signature over msg, which must be the item's signing
// bytes, and the key/address binding.
func (it *Item) verifyBytes(msg []byte) error {
	if err := identity.Verify(it.ProducerPub, it.Producer, msg, it.Signature); err != nil {
		return fmt.Errorf("meta: item %s: %w", it.ID.Short(), err)
	}
	return nil
}

// VerifyData checks that content matches the item's content hash, proving a
// storing node did not tamper with the data (Section III-B2).
func (it *Item) VerifyData(content []byte) error {
	if HashData(content) != it.ID {
		return fmt.Errorf("meta: item %s: content hash mismatch", it.ID.Short())
	}
	return nil
}

// ExpiresAt returns the simulated time at which the item expires. Items
// with zero ValidFor never expire.
func (it *Item) ExpiresAt() time.Duration {
	if it.ValidFor == 0 {
		return 1<<63 - 1
	}
	return it.Produced + it.ValidFor
}

// Expired reports whether the item is past its valid time at now.
func (it *Item) Expired(now time.Duration) bool { return now > it.ExpiresAt() }

// ValidateAt runs both the signature check and the expiry check.
func (it *Item) ValidateAt(now time.Duration) error {
	if err := it.Verify(); err != nil {
		return err
	}
	if it.Expired(now) {
		return fmt.Errorf("meta: item %s: %w", it.ID.Short(), ErrExpired)
	}
	return nil
}

// Clone returns a deep copy; blocks hold copies so later mutation of the
// miner's pool cannot alter chained content.
func (it *Item) Clone() *Item {
	cp := *it
	cp.ProducerPub = append(ed25519.PublicKey(nil), it.ProducerPub...)
	cp.Signature = append([]byte(nil), it.Signature...)
	cp.StoringNodes = append([]int(nil), it.StoringNodes...)
	return &cp
}

// Query matches metadata items by type prefix, location radius and
// freshness; zero fields match everything. This is how consumers "search
// what [they] demand" in the metadata of received blocks (Section III-B1).
type Query struct {
	// TypePrefix matches items whose Type starts with this prefix.
	TypePrefix string
	// Near/WithinMeters restrict to items produced within the radius.
	Near         geo.Point
	WithinMeters float64
	// ProducedAfter restricts to items produced strictly after this time.
	ProducedAfter time.Duration
	// Producer restricts to one producer account.
	Producer identity.Address
}

// Matches reports whether the item satisfies every set constraint.
func (q Query) Matches(it *Item) bool {
	if q.TypePrefix != "" && !hasPrefix(it.Type, q.TypePrefix) {
		return false
	}
	if q.WithinMeters > 0 && geo.Dist(q.Near, it.Location) > q.WithinMeters {
		return false
	}
	if q.ProducedAfter > 0 && it.Produced <= q.ProducedAfter {
		return false
	}
	if !q.Producer.IsZero() && it.Producer != q.Producer {
		return false
	}
	return true
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
