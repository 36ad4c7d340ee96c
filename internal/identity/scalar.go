package identity

import (
	"crypto/sha512"
	"encoding/binary"
	"math/bits"
)

// orderLimbs is ℓ as little-endian 64-bit limbs, and barrettMu is ⌊2⁵¹²/ℓ⌋
// (260 bits), the constant of Barrett's reduction in base 2⁶⁴ (Handbook of
// Applied Cryptography, algorithm 14.42, with k = 4).
var (
	orderLimbs = [4]uint64{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000}
	barrettMu  = [5]uint64{0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb, 0xffffffffffffffff, 0xf}
)

// reduceModL returns the little-endian integer digest modulo ℓ as 32
// little-endian bytes. It runs in variable time: k in a verify is public.
func reduceModL(digest *[sha512.Size]byte) (s [32]byte) {
	var x [8]uint64
	for i := range x {
		x[i] = binary.LittleEndian.Uint64(digest[8*i:])
	}
	// q = ⌊⌊x / 2¹⁹²⌋·μ / 2³²⁰⌋ is ⌊x / ℓ⌋ or at most two below it.
	var qmu [10]uint64
	for i := 0; i < 5; i++ {
		qmu[i+5] = mulAddLimbs(qmu[i:i+5], x[3+i], barrettMu[:])
	}
	// r = x − q·ℓ lies in [0, 3ℓ), and 3ℓ < 2²⁵⁶, so four limbs hold it
	// and the products above 2²⁵⁶ can be dropped.
	var ql [4]uint64
	for i := 0; i < 4; i++ {
		mulAddLimbs(ql[i:], qmu[5+i], orderLimbs[:4-i])
	}
	var r [4]uint64
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(x[i], ql[i], borrow)
	}
	for !belowOrder(&r) {
		borrow = 0
		for i := range r {
			r[i], borrow = bits.Sub64(r[i], orderLimbs[i], borrow)
		}
	}
	for i, l := range r {
		binary.LittleEndian.PutUint64(s[8*i:], l)
	}
	return s
}

// mulAddLimbs sets acc += a·b over len(b) limbs and returns the carry out of
// the last one.
func mulAddLimbs(acc []uint64, a uint64, b []uint64) (carry uint64) {
	for j, bj := range b {
		hi, lo := bits.Mul64(a, bj)
		var c uint64
		lo, c = bits.Add64(lo, acc[j], 0)
		hi += c
		lo, c = bits.Add64(lo, carry, 0)
		acc[j], carry = lo, hi+c
	}
	return carry
}

// belowOrder reports whether the little-endian limbs r are below ℓ.
func belowOrder(r *[4]uint64) bool {
	for i := 3; i >= 0; i-- {
		if r[i] != orderLimbs[i] {
			return r[i] < orderLimbs[i]
		}
	}
	return false
}
