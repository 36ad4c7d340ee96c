package identity

import (
	"bytes"
	"crypto/ed25519"
)

// VerifyFirst is Verify(pub, addr, msg, sig) for a key with no tables: the
// same address binding, the same signature verdict and the same errors, at
// about four fifths of the cost.
func VerifyFirst(pub ed25519.PublicKey, addr Address, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return errKeySize(len(pub))
	}
	if AddressOf(pub) != addr {
		return errAddressMismatch(addr)
	}
	if !verifyFirst(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// verifyFirst is ed25519.Verify(pub, msg, sig) for a 32-byte pub.
//
// crypto/ed25519 accepts iff sig[63]&224 = 0, S < ℓ, A decodes and R's
// bytes encode D = [S]B − [k]A. Encodings are canonical, so the last holds
// iff R's bytes decode to a point R' that encodes back to them, and R' = D.
// The group is ℤ₈ × ℤ_ℓ, so for an odd v with |v| < ℓ, D − R' = O iff
// [v](D − R') = O, which is [e]B − [u]A − [v]R' = O for any u ≡ v·k
// (mod 8ℓ) and e = v·S mod ℓ (Antipa et al., SAC 2005). halfLattice finds
// u and v near 2¹²⁸, so the sum takes about 128 doublings instead of 253,
// with e split into halves on the base tables' stripes for 2⁰B and 2¹²⁸B.
// The identity is X = 0 and Y = Z, so the check needs no inversion.
func verifyFirst(pub, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 || !isReduced(sig[32:]) {
		return false
	}
	var a, r point
	if _, err := a.SetBytes(pub); err != nil {
		return false
	}
	if _, err := r.SetBytes(sig[:32]); err != nil || !encodesTo(&r, sig[:32]) {
		return false
	}
	k := challenge(sig[:32], pub, msg)
	u, v, vNeg := halfLattice(&k)

	// e = |v|·S mod ℓ. For v < 0 the check is negated: [e]B + [u]A −
	// [|v|]R' = O.
	var s [4]uint64
	loadLimbs(s[:], sig[32:])
	var x [8]uint64
	for i, vi := range v {
		x[i+4] = mulAddLimbs(x[i:i+4], vi, s[:])
	}
	e := reduceLimbs(&x)

	var uNaf, vNaf, loNaf, hiNaf [256]int8
	v4, lo, hi := [4]uint64{v[0], v[1]}, [4]uint64{e[0], e[1]}, [4]uint64{e[2], e[3]}
	n := max(naf(&uNaf, &u, 5), naf(&vNaf, &v4, 5), naf(&loNaf, &lo, 8), naf(&hiNaf, &hi, 8))
	if !vNeg {
		a.Negate(&a)
	}
	var aTab, rTab cachedTable
	aTab.fromP3(&a)
	rTab.fromP3(r.Negate(&r))
	base := baseTables()
	loTab, hiTab := base[:baseTable], base[baseTable*(128/stripeBits):]

	var acc projP2
	var sum projP1xP1
	var p point
	acc.Zero()
	for j := n - 1; j >= 0; j-- {
		sum.Double(&acc)
		sum.addCachedDigit(&p, &aTab, uNaf[j])
		sum.addCachedDigit(&p, &rTab, vNaf[j])
		sum.addDigit(&p, loTab, loNaf[j])
		sum.addDigit(&p, hiTab, hiNaf[j])
		acc.FromP1xP1(&sum)
	}
	return acc.X.Equal(feZero) == 1 && acc.Y.Equal(&acc.Z) == 1
}

// encodesTo reports whether the point v, just decoded from enc (so Z = 1),
// encodes back to enc: false for a y ≥ p, and for x = 0 with the sign bit
// set.
func encodesTo(v *point, enc []byte) bool {
	var buf [32]byte
	b := copyFieldElement(&buf, &v.y)
	b[31] |= byte(v.x.IsNegative() << 7)
	return bytes.Equal(b, enc)
}

// cachedTable holds Q, 3Q, 5Q, …, 15Q for width-5 NAF digits.
type cachedTable [8]projCached

func (t *cachedTable) fromP3(q *point) {
	var q2, p point
	var acc projP2
	var sum projP1xP1
	t[0].FromP3(q)
	q2.fromP1xP1(sum.Double(acc.FromP3(q)))
	for i := 0; i < len(t)-1; i++ {
		t[i+1].FromP3(p.fromP1xP1(sum.Add(&q2, &t[i])))
	}
}

// addCachedDigit adds d·Q to v for a NAF digit d, where tab starts Q, 3Q,
// 5Q, …; p is scratch.
func (v *projP1xP1) addCachedDigit(p *point, tab *cachedTable, d int8) {
	switch {
	case d > 0:
		v.Add(p.fromP1xP1(v), &tab[d/2])
	case d < 0:
		v.Sub(p.fromP1xP1(v), &tab[-d/2])
	}
}
