package identity

import (
	"math/big"
	mrand "math/rand"
	"testing"
)

// fieldP is p = 2²⁵⁵ − 19.
var fieldP = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// fieldInt is the integer z's limbs stand for, not reduced mod p.
func fieldInt(z *fieldElement) *big.Int {
	x := new(big.Int)
	for _, l := range []uint64{z.l4, z.l3, z.l2, z.l1, z.l0} {
		x.Lsh(x, 51).Add(x, new(big.Int).SetUint64(l))
	}
	return x
}

// checkInvert fails t unless InvertVar(z) is big.Int.ModInverse(z, p),
// or 0 for z ≡ 0, with limbs below 2⁵¹.
func checkInvert(t *testing.T, z *fieldElement) {
	t.Helper()
	want := new(big.Int).Mod(fieldInt(z), fieldP)
	if want.Sign() != 0 {
		want.ModInverse(want, fieldP)
	}
	var got fieldElement
	got.InvertVar(z)
	for _, l := range []uint64{got.l0, got.l1, got.l2, got.l3, got.l4} {
		if l > maskLow51Bits {
			t.Fatalf("InvertVar(%v) = %v, limbs not reduced", z, got)
		}
	}
	if fieldInt(&got).Cmp(want) != 0 {
		t.Fatalf("InvertVar(%x) = %x, want %x", fieldInt(z), fieldInt(&got), want)
	}
}

// feFromBytes is SetBytes on a 32-byte little-endian encoding, which may
// be ≥ p and may have its (ignored) top bit set.
func feFromBytes(b []byte) *fieldElement {
	z, err := new(fieldElement).SetBytes(b)
	if err != nil {
		panic(err)
	}
	return z
}

// TestInvertVarMatchesBig is the inversion's differential: 10⁶ seeded
// elements (10⁴ under -short), half as random encodings and half as random
// limbs below 2⁵², the range between field operations; and the edge cases 0
// (inverts to 0), 1, 2, p − 2, p − 1 = 2²⁵⁵ − 20, and the non-canonical
// encodings p … 2²⁵⁵ − 1, with and without the top bit set.
func TestInvertVarMatchesBig(t *testing.T) {
	var enc [32]byte
	for _, x := range []int64{0, 1, 2, -2, -1} {
		v := big.NewInt(x)
		leFill(enc[:], v.Mod(v, fieldP))
		checkInvert(t, feFromBytes(enc[:]))
	}
	for d := int64(0); d < 19; d++ {
		leFill(enc[:], new(big.Int).Add(fieldP, big.NewInt(d)))
		checkInvert(t, feFromBytes(enc[:]))
		enc[31] |= 0x80
		checkInvert(t, feFromBytes(enc[:]))
	}
	cases := 1_000_000
	if testing.Short() {
		cases = 10_000
	}
	rng := mrand.New(mrand.NewSource(8))
	for i := 0; i < cases; i++ {
		if i%2 == 0 {
			rng.Read(enc[:])
			checkInvert(t, feFromBytes(enc[:]))
			continue
		}
		const below52 = 1<<52 - 1
		checkInvert(t, &fieldElement{rng.Uint64() & below52, rng.Uint64() & below52,
			rng.Uint64() & below52, rng.Uint64() & below52, rng.Uint64() & below52})
	}
}

// FuzzInvert holds InvertVar to big.Int.ModInverse on any 32-byte encoding.
func FuzzInvert(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add([]byte{1})
	f.Add(mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))
	f.Add(mustHex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"))
	f.Fuzz(func(t *testing.T, b []byte) {
		var enc [32]byte
		copy(enc[:], b)
		checkInvert(t, feFromBytes(enc[:]))
	})
}
