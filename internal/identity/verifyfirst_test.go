package identity

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// scalarOf returns the secret scalar crypto/ed25519 derives from seed: the
// clamped low half of SHA-512(seed).
func scalarOf(seed []byte) *big.Int {
	h := sha512.Sum512(seed)
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	return leInt(h[:32])
}

// mixedSig signs msg under the key A = [a]B + T with the nonce point R =
// [r]B + T_R: a and r are the scalars of seedA and seedR, T and T_R are
// lowOrder[ta] and lowOrder[tr], and S = r + k·a mod ℓ. crypto/ed25519
// therefore accepts it iff [S]B − [k]A − R = −[k]T − T_R is the identity:
// the signature is valid or fails by a torsion point only.
func mixedSig(seedA, seedR []byte, ta, tr int, msg []byte) (pub, sig []byte) {
	withTorsion := func(seed []byte, t int) ([]byte, *big.Int) {
		p, err := new(point).SetBytes(ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey))
		if err != nil {
			panic(err)
		}
		tp, err := new(point).SetBytes(lowOrder[t])
		if err != nil {
			panic(err)
		}
		var enc [32]byte
		return bytes.Clone(p.Add(p, tp).bytes(&enc)), scalarOf(seed)
	}
	pub, a := withTorsion(seedA, ta)
	rEnc, r := withTorsion(seedR, tr)
	h := sha512.New()
	h.Write(rEnc)
	h.Write(pub)
	h.Write(msg)
	k := new(big.Int).Mod(leInt(h.Sum(nil)), order)
	s := new(big.Int).Mod(new(big.Int).Add(r, new(big.Int).Mul(k, a)), order)
	sig = append(rEnc, make([]byte, 32)...)
	leFill(sig[32:], s)
	return pub, sig
}

// TestMixedOrderMatchesStdlib signs under keys and nonce points with a
// torsion component, A = [a]B + T and R = [r]B + T_R, and grinds the
// message until half the cases verify under crypto/ed25519 and half fail
// by a torsion point only. The tabled verify and the first check must give
// crypto/ed25519's verdict on every one: both take [k]A with k's own
// value, not mod ℓ, and the first check's lattice is taken mod 8ℓ for it.
func TestMixedOrderMatchesStdlib(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	const cases = 256
	torsion := 0
	for i := 0; i < cases; i++ {
		want := i%2 == 0
		seedA, seedR := make([]byte, 32), make([]byte, 32)
		rng.Read(seedA)
		for try := 0; ; try++ {
			if try == 1000 {
				t.Fatalf("case %d: no message in 1000 gave verdict %v", i, want)
			}
			rng.Read(seedR)
			ta, tr := rng.Intn(8), rng.Intn(8)
			msg := make([]byte, rng.Intn(64))
			rng.Read(msg)
			pub, sig := mixedSig(seedA, seedR, ta, tr, msg)
			if stdlibVerdict(pub, msg, sig) != want {
				continue
			}
			k, err := NewVerifyKey(pub)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := differ(k, pub, msg, sig); err != nil {
				t.Fatalf("case %d (T %d, T_R %d): %v", i, ta, tr, err)
			}
			if ta != 0 {
				torsion++
			}
			break
		}
	}
	if torsion < cases/2 {
		t.Fatalf("only %d of %d keys had a torsion component", torsion, cases)
	}
}

// FuzzVerifyFirst holds the first check, and the tabled verify beside it,
// to crypto/ed25519's verdict on signatures under keys with a torsion
// component (mixedSig), valid or failing by a torsion point, as signed or
// with one bit of the signature flipped.
func FuzzVerifyFirst(f *testing.F) {
	f.Add([]byte("a"), []byte("r"), []byte("fuzz"), uint8(0), uint8(0), uint16(512))
	f.Add([]byte("a"), []byte("r"), []byte("fuzz"), uint8(4), uint8(6), uint16(512))
	f.Add([]byte("key"), []byte("nonce"), []byte{}, uint8(1), uint8(1), uint16(3))
	f.Fuzz(func(t *testing.T, seedA, seedR, msg []byte, ta, tr uint8, flip uint16) {
		pub, sig := mixedSig(seed32(seedA), seed32(seedR), int(ta%8), int(tr%8), msg)
		if flip < 512 {
			sig[flip/8] ^= 1 << (flip % 8)
		}
		k, err := NewVerifyKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := differ(k, pub, msg, sig); err != nil {
			t.Fatal(err)
		}
	})
}

// seed32 pads or cuts b to an ed25519 seed.
func seed32(b []byte) []byte {
	s := make([]byte, ed25519.SeedSize)
	copy(s, b)
	return s
}

// halfLatticeBig is halfLattice on math/big: Euclid on (8ℓ, k) to the
// first remainder below 2¹²⁸, then the vector of the two last ones whose
// t is odd, preferring the last.
func halfLatticeBig(k *big.Int) (u, v *big.Int) {
	r0, r1 := new(big.Int).Lsh(order, 3), new(big.Int).Set(k)
	t0, t1 := new(big.Int), big.NewInt(1)
	q, r, qt := new(big.Int), new(big.Int), new(big.Int)
	for r1.BitLen() > 128 {
		q.DivMod(r0, r1, r)
		r0, r1, r = r1, r, r0
		t0.Sub(t0, qt.Mul(q, t1))
		t0, t1 = t1, t0
	}
	if t1.Bit(0) == 1 {
		return r1, t1
	}
	return r0, t0
}

// TestHalfLatticeMatchesBig is the lattice reduction's differential: for
// k = 0, 1, 2¹²⁸ − 1, 2¹²⁸, ℓ − 1 and 10⁵ seeded k below ℓ (10⁴ under
// -short), halfLattice returns exactly halfLatticeBig's vector, and that
// vector has u ≡ v·k (mod 8ℓ), v odd, |v| < 2¹²⁸ and 0 ≤ u < ℓ. Over the
// seeded k the longer of |u| and |v| averages at most 129 bits, and
// exceeds 140 bits on at most one k in a thousand.
func TestHalfLatticeMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	two128 := new(big.Int).Lsh(one, 128)
	eightL := new(big.Int).Lsh(order, 3)
	check := func(k *big.Int) int {
		t.Helper()
		var kb [32]byte
		leFill(kb[:], k)
		var kl [4]uint64
		loadLimbs(kl[:], kb[:])
		ul, vl, vNeg := halfLattice(&kl)
		u, v := limbsInt(ul[:]), limbsInt(vl[:])
		if vNeg {
			v.Neg(v)
		}
		wu, wv := halfLatticeBig(k)
		if u.Cmp(wu) != 0 || v.Cmp(wv) != 0 {
			t.Fatalf("k = %x: halfLattice = (%x, %x), math/big = (%x, %x)", k, u, v, wu, wv)
		}
		diff := new(big.Int).Sub(u, new(big.Int).Mul(v, k))
		switch {
		case diff.Mod(diff, eightL).Sign() != 0:
			t.Fatalf("k = %x: u = %x ≢ v·k (mod 8ℓ) for v = %x", k, u, v)
		case v.Bit(0) != 1:
			t.Fatalf("k = %x: v = %x is even", k, v)
		case new(big.Int).Abs(v).Cmp(two128) >= 0 || u.Sign() < 0 || u.Cmp(order) >= 0:
			t.Fatalf("k = %x: (u, v) = (%x, %x) out of bounds", k, u, v)
		}
		return max(u.BitLen(), v.BitLen())
	}
	if u, v := halfLatticeBig(new(big.Int).Sub(order, one)); u.Cmp(new(big.Int).Sub(order, one)) != 0 || v.Cmp(one) != 0 {
		// No short vector with v odd exists for k = ℓ − 1: u ≡ −v (mod
		// ℓ) forces u = −v, and mod 8 then v ≡ 0. The reduction hands
		// back the trivial (k, 1), for which the check takes 253
		// doublings, as crypto/ed25519 does.
		t.Fatalf("k = ℓ − 1: math/big gives (%x, %x), want (ℓ − 1, 1)", u, v)
	}
	for _, k := range []*big.Int{new(big.Int), one, new(big.Int).Sub(two128, one), two128, new(big.Int).Sub(order, one)} {
		check(k)
	}
	cases := 100_000
	if testing.Short() {
		cases = 10_000
	}
	rng := mrand.New(mrand.NewSource(10))
	sum, long := 0, 0
	for i := 0; i < cases; i++ {
		n := check(new(big.Int).Rand(rng, order))
		sum += n
		if n > 140 {
			long++
		}
	}
	if mean := float64(sum) / float64(cases); mean > 129 || long > cases/1000 {
		t.Fatalf("longer of |u|, |v|: mean %.2f bits, above 140 bits on %d of %d k", mean, long, cases)
	}
}

// A wrong-length key or signature, S ≥ ℓ, a high bit in sig[63], an R or
// A that does not decode and a non-canonical R are refused before the
// lattice, as crypto/ed25519 refuses them.
func TestVerifyFirstRefusals(t *testing.T) {
	id := GenerateSeeded(mrand.New(mrand.NewSource(12)))
	msg := []byte("refusals")
	good := id.Sign(msg)
	pub := id.PublicKey()
	notPoint := mustHex("0200000000000000000000000000000000000000000000000000000000000000")
	sIsL := make([]byte, 32)
	leFill(sIsL, order)
	for name, c := range map[string]struct{ pub, sig []byte }{
		"valid":            {pub, good},
		"short sig":        {pub, good[:63]},
		"S = ℓ":            {pub, append(bytes.Clone(good[:32]), sIsL...)},
		"high bit":         {pub, append(bytes.Clone(good[:63]), good[63]|0x80)},
		"R not a point":    {pub, append(bytes.Clone(notPoint), good[32:]...)},
		"A not a point":    {notPoint, good},
		"R = −0 identity":  {pub, append(bytes.Clone(lowOrder[8]), make([]byte, 32)...)},
		"R = identity":     {pub, append(bytes.Clone(lowOrder[0]), make([]byte, 32)...)},
		"R = p + 1":        {lowOrder[0], append(bytes.Clone(lowOrder[9]), make([]byte, 32)...)},
		"R = 1, A = O":     {lowOrder[0], append(bytes.Clone(lowOrder[0]), make([]byte, 32)...)},
		"R = O, A = order": {lowOrder[1], append(bytes.Clone(lowOrder[0]), make([]byte, 32)...)},
	} {
		want := stdlibVerdict(c.pub, msg, c.sig)
		if got := verifyFirst(c.pub, msg, c.sig); got != want {
			t.Errorf("%s: first check %v, crypto/ed25519 %v", name, got, want)
		}
	}
	if fmt.Sprint(VerifyFirst(pub[:31], id.Address(), msg, good)) != fmt.Sprint(Verify(pub[:31], id.Address(), msg, good)) {
		t.Error("a short key is refused differently")
	}
}
