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

// challenge returns k = SHA-512(r ‖ pub ‖ msg) mod ℓ as little-endian
// limbs. It runs in variable time: k in a verify is public.
func challenge(r, pub, msg []byte) [4]uint64 {
	h := sha512.New()
	h.Write(r)
	h.Write(pub)
	h.Write(msg)
	var digest [sha512.Size]byte
	h.Sum(digest[:0])
	var x [8]uint64
	loadLimbs(x[:], digest[:])
	return reduceLimbs(&x)
}

// loadLimbs reads len(x) little-endian 64-bit limbs from b.
func loadLimbs(x []uint64, b []byte) {
	for i := range x {
		x[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
}

// reduceLimbs returns the 512-bit little-endian integer x modulo ℓ, in
// variable time.
func reduceLimbs(x *[8]uint64) (r [4]uint64) {
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
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(x[i], ql[i], borrow)
	}
	for !lessLimbs(&r, &orderLimbs) {
		borrow = 0
		for i := range r {
			r[i], borrow = bits.Sub64(r[i], orderLimbs[i], borrow)
		}
	}
	return r
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

// lessLimbs reports whether a < b.
func lessLimbs(a, b *[4]uint64) bool {
	for i := 3; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// bitLen returns the bit length of x.
func bitLen(x *[4]uint64) int {
	i := 3
	for i > 0 && x[i] == 0 {
		i--
	}
	return 64*i + bits.Len64(x[i])
}

// bitsAt returns the 64 bits of x from bit s up.
func bitsAt(x *[4]uint64, s int) uint64 {
	i, b := s/64, uint(s%64)
	w := x[i] >> b
	if i < 3 {
		w |= x[i+1] << (64 - b) // no-op for b = 0
	}
	return w
}

// naf sets the zeroed digits to the width-w non-adjacent form of x < 2²⁵⁵
// and returns how many digits it has. It is the form crypto/ed25519's
// nonAdjacentForm computes, found by skipping runs of zeros (of ones under
// a carry) and stopping at x's top: a NAF is at most one digit longer
// than its scalar.
func naf(digits *[256]int8, x *[4]uint64, w uint) (n int) {
	width := uint64(1) << w
	var carry uint64
	for pos, end := 0, bitLen(x)+1; pos < end; {
		buf := bitsAt(x, pos)
		// With a carry the next digit sits at the first zero bit, else
		// at the first one.
		if z := bits.TrailingZeros64(buf ^ -carry); z > 0 {
			pos += z
			continue
		}
		window := carry + buf&(width-1)
		if window < width/2 {
			carry = 0
			digits[pos] = int8(window)
		} else {
			carry = 1
			digits[pos] = int8(window) - int8(width)
		}
		n = pos + 1
		pos += int(w)
	}
	return n
}
