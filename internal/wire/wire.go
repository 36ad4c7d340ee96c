// Package wire is the one cursor every decoder in this module reads through,
// and the few append helpers their encoders share (DESIGN.md "Wire format").
//
// Everything serialised — frames, WAL records, snapshot blobs — writes its
// counts, lengths, heights, durations, sizes and node indices as unsigned
// LEB128 varints (encoding/binary's Uvarint). The Reader accepts only the
// shortest encoding of a value, so bytes a decoder accepts re-encode to
// themselves, and it checks every count against the bytes that remain
// before the caller allocates for it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

var (
	// ErrTruncated reports input that ends inside a field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrVarint reports a varint that overflows 64 bits or is not the
	// shortest encoding of its value.
	ErrVarint = errors.New("wire: malformed varint")
)

// HashSize is the width of the SHA-256 block hashes and data IDs on the wire.
const HashSize = 32

// Reader is a cursor over a byte slice. The first error sticks: every read
// after it returns a zero value, so a decoder reads all its fields and
// checks Err or Done once.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error met so far.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Take returns the next n bytes, aliasing the input.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.err = ErrTruncated
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

// Rest returns every unread byte, aliasing the input.
func (r *Reader) Rest() []byte { return r.Take(r.Len()) }

// Uvarint reads one varint in its shortest encoding.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	if r.off < len(r.b) && r.b[r.off] < 0x80 { // most lengths, counts and indices
		r.off++
		return uint64(r.b[r.off-1])
	}
	v, n := binary.Uvarint(r.b[r.off:])
	switch {
	case n == 0:
		r.err = ErrTruncated
		return 0
	case n < 0 || n > 1 && r.b[r.off+n-1] == 0: // overflow, or a padded encoding
		r.err = ErrVarint
		return 0
	}
	r.off += n
	return v
}

// Uint32 reads a fixed-width big-endian word.
func (r *Reader) Uint32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads a fixed-width big-endian word (float bits stay fixed width).
func (r *Reader) Uint64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Float64 reads the IEEE bits AppendFloat64 wrote.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// Hash reads a 32-byte hash or ID.
func (r *Reader) Hash() (h [HashSize]byte) {
	copy(h[:], r.Take(HashSize))
	return h
}

// Count reads the length of a list whose elements take at least elemSize
// (≥ 1) bytes each and fails if the unread bytes cannot hold that many, so
// the caller may allocate for the count it gets.
func (r *Reader) Count(elemSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	// n ≤ Len first, so the product cannot overflow (and no division).
	if left := uint64(r.Len()); n > left || n*uint64(elemSize) > left {
		r.err = fmt.Errorf("wire: count %d exceeds the %d bytes that remain", n, r.Len())
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string, aliasing the input.
func (r *Reader) Bytes() []byte { return r.Take(r.Count(1)) }

// Int reads a non-negative index or size; values above math.MaxInt32 fail.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > math.MaxInt32 { // only a successful read returns non-zero
		r.err = fmt.Errorf("wire: integer %d out of range", v)
		return 0
	}
	return int(v)
}

// Ints reads what AppendInts wrote; an empty list is nil.
func (r *Reader) Ints() []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Fail records err unless an error is already set, so a decoder's own
// rule — a flag naming an empty field, say — sticks like a short read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the first error, or an error if unread bytes remain.
func (r *Reader) Done() error {
	if r.err == nil && r.Len() != 0 {
		r.err = fmt.Errorf("wire: %d trailing bytes", r.Len())
	}
	return r.err
}

// UvarintLen is the encoded size of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes[T ~[]byte | ~string](dst []byte, s T) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// BytesLen is the encoded size of an n-byte string with its length prefix.
func BytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// AppendFloat64 appends the IEEE bits of f as a fixed-width word.
func AppendFloat64(dst []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendInts appends a count and then each element as a varint. Elements
// are node indices: a negative one encodes to ten bytes no Reader accepts.
func AppendInts(dst []byte, ns []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ns)))
	for _, n := range ns {
		dst = binary.AppendUvarint(dst, uint64(n))
	}
	return dst
}

// IntsLen is the encoded size of ns as AppendInts writes it.
func IntsLen(ns []int) int {
	n := UvarintLen(uint64(len(ns)))
	for _, v := range ns {
		n += UvarintLen(uint64(v))
	}
	return n
}
