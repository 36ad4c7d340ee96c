package meta

import (
	"encoding/binary"
	"errors"
	"math"
)

// errTruncated reports a short buffer during decoding.
var errTruncated = errors.New("truncated input")

// reader is a tiny cursor over a byte slice that records the first error
// and turns all subsequent reads into no-ops.
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

func (r *reader) bytes(dst []byte) {
	src := r.take(len(dst))
	if r.err == nil {
		copy(dst, src)
	}
}

func (r *reader) uint64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (r *reader) uint32() uint32 {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) float() float64 {
	return math.Float64frombits(r.uint64())
}

func (r *reader) str() string {
	n := int(r.uint32())
	b := r.take(n)
	if r.err != nil {
		return ""
	}
	return string(b)
}

func (r *reader) blob() []byte {
	n := int(r.uint32())
	b := r.take(n)
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), b...)
}
