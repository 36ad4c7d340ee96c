package identity

import "math/bits"

// eightOrder is 8ℓ, the order of the whole curve group, as little-endian
// limbs.
var eightOrder = [4]uint64{0xc09318d2e7ae9f68, 0xa6f7cef517bce6b2, 0, 0x8000000000000000}

// halfLattice returns a vector (u, v) of the lattice u ≡ v·k (mod 8ℓ) with
// v odd, u ≥ 0 and |v| < 2¹²⁸; vNeg is the sign of v. For all but a
// vanishing share of k, u is about 2¹²⁸ too; it is below ℓ for every k < ℓ.
//
// It runs the extended Euclidean algorithm on (8ℓ, k), keeping r_i ≡ t_i·k
// (mod 8ℓ), and stops at the first remainder r₁ < 2¹²⁸. With r₀ ≥ 2¹²⁸
// the previous remainder, r₀·|t₁| ≤ 8ℓ bounds |t₁| below 2¹²⁸. Two
// consecutive t are coprime, so if t₁ is even t₀ is odd, and |t₀| ≤ |t₁|;
// then (r₀, t₀) is the vector, at the price of r₀'s length.
//
// Most steps are Lehmer's: runs of quotients found on the top 64 bits of
// (r₀, r₁) and applied to all of them at once. Near 2¹²⁸, where such a run
// could not tell where the stop falls, single steps on the whole numbers
// finish.
func halfLattice(k *[4]uint64) (u [4]uint64, v [2]uint64, vNeg bool) {
	r0, r1 := eightOrder, *k
	var t0, t1 [2]uint64 // |t₀|, |t₁|
	t1[0] = 1
	neg1 := false // t₁ < 0; t₀ has the other sign
	for r1[3]|r1[2] != 0 {
		a0, b0, a1, b1, odd, ok := lehmerRun(&r0, &r1)
		if ok {
			// (r₀, r₁) become (r_j, r_{j+1}), where r_i = ±(α_i·r₀ −
			// β_i·r₁) with the sign (−1)^i, and |t_i| = α_i·|t₀| +
			// β_i·|t₁|: the signs of t₀ and t₁ differ.
			r0, r1 = combineLimbs(a0, &r0, b0, &r1, odd), combineLimbs(a1, &r0, b1, &r1, !odd)
			t0, t1 = addMulPair(a0, &t0, b0, &t1), addMulPair(a1, &t0, b1, &t1)
			neg1 = neg1 != odd
			continue
		}
		// One step, (r₀, t₀) −= q·(r₁, t₁) for q = ⌊r₀/r₁⌋, in one or a
		// few partial quotients q·2^m; then swap.
		for !lessLimbs(&r0, &r1) {
			q, m := quotientBelow(&r0, &r1)
			r, t := shiftLimbs(r1, m), shiftLimbs(t1, m)
			subMulLimbs(&r0, q, &r)
			t0 = addMulPair(1, &t0, q, &t)
		}
		r0, r1, t0, t1, neg1 = r1, r0, t1, t0, !neg1
	}
	if t1[0]&1 == 1 {
		return r1, t1, neg1
	}
	return r0, t0, !neg1
}

// lehmerRun runs Euclid's algorithm on the top 64 bits x and y of r₀ ≥ r₁
// ≥ 2¹²⁸ (y read at x's places) and returns the cofactors α, β of the last
// two remainders r_j, r_{j+1} whose quotients are provably those of (r₀,
// r₁) (Collins' condition, as in math/big's lehmerSimulate) and for which
// r_{j+1} ≥ 2¹²⁸ still holds. odd is j's parity; ok is false when no step
// qualifies (j = 0).
func lehmerRun(r0, r1 *[4]uint64) (a0, b0, a1, b1 uint64, odd, ok bool) {
	// x = ⌊r₀/2^shift⌋, and a simulated remainder a with cofactor β < a
	// stands for a true one above 2^shift·(a − β).
	shift := bitLen(r0) - 64
	x, y := bitsAt(r0, shift), bitsAt(r1, shift)
	floor := uint64(1)
	if shift < 128 {
		floor <<= 128 - shift
	}
	var aPrev, bPrev uint64
	a0, b0, a1, b1 = 1, 0, 0, 1
	for y >= floor+b1 && x-y >= b0+b1 {
		q, r := x/y, x%y
		x, y = y, r
		aPrev, a0, a1 = a0, a1, a0+q*a1
		bPrev, b0, b1 = b0, b1, b0+q*b1
		odd = !odd
	}
	// The last quotient taken is not yet proven: step back over it.
	return aPrev, bPrev, a0, b0, !odd, bPrev != 0
}

// quotientBelow returns q and m with 1 ≤ q·2^m ≤ ⌊a/b⌋, for a ≥ b ≥
// 2¹²⁸: a's top 64 bits over one more than b's top 32, which is ⌊a/b⌋ or a
// unit or two below it when ⌊a/b⌋ < 2³⁰, and finds some 31 of its bits at
// a time above.
func quotientBelow(a, b *[4]uint64) (q uint64, m uint) {
	la, lb := bitLen(a), bitLen(b)
	q = bitsAt(a, la-64) / (bitsAt(b, lb-32) + 1)
	if d := la - 64 - (lb - 32); d >= 0 {
		m = uint(d)
	} else {
		q >>= uint(-d)
	}
	if q == 0 {
		return 1, 0
	}
	return q, m
}

// shiftLimbs returns x·2^m, which must fit.
func shiftLimbs[T [2]uint64 | [4]uint64](x T, m uint) (r T) {
	w, b := int(m/64), m%64
	for i := len(r) - 1; i >= w; i-- {
		r[i] = x[i-w] << b
		if i > w && b > 0 {
			r[i] |= x[i-w-1] >> (64 - b)
		}
	}
	return r
}

// subMulLimbs sets a −= q·b; q·b must not exceed a.
func subMulLimbs(a *[4]uint64, q uint64, b *[4]uint64) {
	var carry, borrow uint64
	for i := range a {
		hi, lo := bits.Mul64(q, b[i])
		lo, c := bits.Add64(lo, carry, 0)
		carry = hi + c
		a[i], borrow = bits.Sub64(a[i], lo, borrow)
	}
}

// combineLimbs returns α·x − β·y, or β·y − α·x if neg; the result must lie
// in [0, 2²⁵⁶).
func combineLimbs(alpha uint64, x *[4]uint64, beta uint64, y *[4]uint64, neg bool) (r [4]uint64) {
	var cx, cy, borrow uint64
	for i := range r {
		hx, lx := bits.Mul64(alpha, x[i])
		hy, ly := bits.Mul64(beta, y[i])
		var c uint64
		lx, c = bits.Add64(lx, cx, 0)
		cx = hx + c
		ly, c = bits.Add64(ly, cy, 0)
		cy = hy + c
		if neg {
			lx, ly = ly, lx
		}
		r[i], borrow = bits.Sub64(lx, ly, borrow)
	}
	return r
}

// addMulPair returns α·x + β·y on two limbs; the sum must fit.
func addMulPair(alpha uint64, x *[2]uint64, beta uint64, y *[2]uint64) (r [2]uint64) {
	hx, lx := bits.Mul64(alpha, x[0])
	hy, ly := bits.Mul64(beta, y[0])
	var c uint64
	r[0], c = bits.Add64(lx, ly, 0)
	r[1] = hx + hy + alpha*x[1] + beta*y[1] + c
	return r
}
