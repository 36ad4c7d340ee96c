package identity

import (
	"crypto/sha512"
	"math/big"
	mrand "math/rand"
	"testing"
)

// leInt reads b as a little-endian unsigned integer.
func leInt(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i, c := range b {
		be[len(b)-1-i] = c
	}
	return new(big.Int).SetBytes(be)
}

// leFill writes x into b as a little-endian unsigned integer.
func leFill(b []byte, x *big.Int) {
	x.FillBytes(b)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// limbsInt reads little-endian limbs as an unsigned integer.
func limbsInt(x []uint64) *big.Int {
	n := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(x[i]))
	}
	return n
}

// The Barrett constants are ℓ and ⌊2⁵¹²/ℓ⌋.
func TestBarrettConstants(t *testing.T) {
	mu := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 512), order)
	for _, c := range []struct {
		name  string
		limbs []uint64
		want  *big.Int
	}{{"orderLimbs", orderLimbs[:], order}, {"barrettMu", barrettMu[:], mu}} {
		if got := limbsInt(c.limbs); got.Cmp(c.want) != 0 {
			t.Fatalf("%s = %x, want %x", c.name, got, c.want)
		}
	}
}

// TestReduceModLMatchesBig is the reduction's differential: 10⁶ seeded
// digests (10⁴ under -short) and the edge cases — 0, ℓ − 1, ℓ, ℓ + 1, 2ℓ,
// 2⁵¹² − 1 (all 0xFF), and q·ℓ and q·ℓ − 1 for the largest q — read as
// limbs as challenge reads them, reduce to what big.Int.Mod(ℓ) gives.
func TestReduceModLMatchesBig(t *testing.T) {
	check := func(x *big.Int) {
		t.Helper()
		var d [sha512.Size]byte
		leFill(d[:], x)
		var l [8]uint64
		loadLimbs(l[:], d[:])
		r := reduceLimbs(&l)
		if got, want := limbsInt(r[:]), new(big.Int).Mod(x, order); got.Cmp(want) != 0 {
			t.Fatalf("reduceLimbs(%x) = %x, want %x", x, got, want)
		}
	}
	one := big.NewInt(1)
	top := new(big.Int).Sub(new(big.Int).Lsh(one, 512), one)
	qMax := new(big.Int).Div(top, order)
	for _, x := range []*big.Int{
		new(big.Int),
		new(big.Int).Sub(order, one),
		order,
		new(big.Int).Add(order, one),
		new(big.Int).Lsh(order, 1),
		top,
		new(big.Int).Mul(qMax, order),
		new(big.Int).Sub(new(big.Int).Mul(qMax, order), one),
	} {
		check(x)
	}
	cases := 1_000_000
	if testing.Short() {
		cases = 10_000
	}
	rng := mrand.New(mrand.NewSource(7))
	var d [sha512.Size]byte
	for i := 0; i < cases; i++ {
		rng.Read(d[:])
		if i%4 == 0 { // shorter digests: values below 2²⁵⁶ and near ℓ
			clear(d[32+rng.Intn(32):])
		}
		check(leInt(d[:]))
	}
}

// nafBig is the width-w NAF of x on math/big, by its definition: while x
// is not zero, an odd x gives the digit d ≡ x (mod 2^w) with |d| < 2^(w−1)
// and x −= d; then x halves. The form is unique.
func nafBig(x *big.Int, w uint) (digits [256]int8, n int) {
	x = new(big.Int).Set(x)
	mask := big.NewInt(1<<w - 1)
	for i := 0; x.Sign() > 0; i++ {
		if x.Bit(0) == 1 {
			d := new(big.Int).And(x, mask).Int64()
			if d >= 1<<(w-1) {
				d -= 1 << w
			}
			digits[i], n = int8(d), i+1
			x.Sub(x, big.NewInt(d))
		}
		x.Rsh(x, 1)
	}
	return digits, n
}

// naf gives the NAF and its length on random scalars of every length up to
// 253 bits, at the widths the two checks use (4 and 8 tabled, 5 and 8
// first).
func TestNafMatchesBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for i := 0; i < 20_000; i++ {
		var x [4]uint64
		for j := range x {
			x[j] = rng.Uint64()
		}
		x[3] >>= 11
		x[3-i%4] >>= rng.Intn(64) // all lengths, and runs of zeros
		if i%3 == 0 {
			x[rng.Intn(4)] = ^uint64(0) >> 11 // runs of ones: carries
		}
		for _, w := range []uint{4, 5, 8} {
			var got [256]int8
			n := naf(&got, &x, w)
			want, wantN := nafBig(limbsInt(x[:]), w)
			if got != want || n != wantN {
				t.Fatalf("%x, width %d: naf = %v (%d digits), math/big = %v (%d)", x, w, got, n, want, wantN)
			}
		}
	}
	var zero [4]uint64
	var got [256]int8
	if n := naf(&got, &zero, 5); n != 0 || got != [256]int8{} {
		t.Fatalf("naf(0) = %v, %d digits", got, n)
	}
}
