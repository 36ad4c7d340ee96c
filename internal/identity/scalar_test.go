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

// The Barrett constants are ℓ and ⌊2⁵¹²/ℓ⌋.
func TestBarrettConstants(t *testing.T) {
	mu := new(big.Int).Div(new(big.Int).Lsh(big.NewInt(1), 512), order)
	for _, c := range []struct {
		name  string
		limbs []uint64
		want  *big.Int
	}{{"orderLimbs", orderLimbs[:], order}, {"barrettMu", barrettMu[:], mu}} {
		got := new(big.Int)
		for i := len(c.limbs) - 1; i >= 0; i-- {
			got.Lsh(got, 64).Or(got, new(big.Int).SetUint64(c.limbs[i]))
		}
		if got.Cmp(c.want) != 0 {
			t.Fatalf("%s = %x, want %x", c.name, got, c.want)
		}
	}
}

// TestReduceModLMatchesBig is the reduction's differential: 10⁶ seeded
// digests (10⁴ under -short) and the edge cases — 0, ℓ − 1, ℓ, ℓ + 1, 2ℓ,
// 2⁵¹² − 1 (all 0xFF), and q·ℓ and q·ℓ − 1 for the largest q — reduce to
// what big.Int.Mod(ℓ) gives.
func TestReduceModLMatchesBig(t *testing.T) {
	check := func(x *big.Int) {
		t.Helper()
		var d [sha512.Size]byte
		leFill(d[:], x)
		got := reduceModL(&d)
		var want [32]byte
		leFill(want[:], new(big.Int).Mod(x, order))
		if got != want {
			t.Fatalf("reduceModL(%x) = %x, want %x", x, got, want)
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
