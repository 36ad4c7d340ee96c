package identity

// The field inversion is Bernstein and Yang's safegcd ("Fast constant-time
// gcd computation and modular inversion", 2019) in the variable-time shape
// of libsecp256k1's secp256k1_modinv64_var: divsteps in batches of 62, each
// batch a 2×2 transition matrix applied to (f, g) and (d, e) held as five
// signed 62-bit limbs. Its running time depends on its input, which is
// harmless here: every element this package inverts — the Z of a verify's
// [S]B + [k](−A), the Z of a base-table point — is computed from public
// inputs.

import "math/bits"

// signed62 is the integer Σ v[i]·2⁶²ⁱ. Limbs may be negative; after a
// batch every limb but the top one lies in [0, 2⁶²).
type signed62 [5]int64

const m62 = 1<<62 - 1

// p62 is p = 2²⁵⁵ − 19 = −19 + 2⁷·2²⁴⁸, written with zero middle limbs so
// that the updates below can skip them, and pInv62 is p⁻¹ mod 2⁶².
var p62 = signed62{-19, 0, 0, 0, 128}

const pInv62 = 0x39435e50d79435e5

// InvertVar sets v = 1/z mod p in variable time and returns v. If z = 0 it
// sets v = 0, as the Fermat inversion it replaces did.
func (v *fieldElement) InvertVar(z *fieldElement) *fieldElement {
	d, e := signed62{}, signed62{1}
	f, g := p62, toSigned62(z)
	eta := int64(-1) // −δ, with δ = 1 at the start
	n := len(f)
	for {
		var t transition
		eta, t = divsteps62Var(eta, uint64(f[0]), uint64(g[0]))
		t.updateDE(&d, &e)
		t.updateFG(f[:n], g[:n])
		if g[0] == 0 {
			var rest int64
			for _, l := range g[1:n] {
				rest |= l
			}
			if rest == 0 {
				break
			}
		}
		// Drop the top limb of f and g when both are 0 or −1, folding its
		// sign into the limb below.
		fn, gn := f[n-1], g[n-1]
		if n > 1 && fn^(fn>>63) == 0 && gn^(gn>>63) == 0 {
			f[n-2] |= int64(uint64(fn) << 62)
			g[n-2] |= int64(uint64(gn) << 62)
			n--
		}
	}
	// g = 0 and f = ±gcd(p, z) = ±1, so d = ±1/z, in (−2p, p).
	return v.fromSigned62(normalize62(&d, f[n-1]))
}

// transition is the matrix [u v; q r] of 62 divsteps, scaled by 2⁶²:
// after the batch, 2⁶²·f′ = u·f + v·g and 2⁶²·g′ = q·f + r·g.
type transition struct{ u, v, q, r int64 }

// divsteps62Var runs 62 divsteps on the low 64 bits f0, g0 of f and g
// (f odd) from eta = −δ, and returns the new eta and the matrix. Runs of
// zero bits in g are skipped at once, and each other step cancels up to six
// (eta < 0) or four low bits of g.
func divsteps62Var(eta int64, f0, g0 uint64) (int64, transition) {
	u, v, q, r := uint64(1), uint64(0), uint64(0), uint64(1)
	f, g := f0, g0
	i := uint(62)
	for {
		// The sentinel bit stops the count at the steps left.
		zeros := uint(bits.TrailingZeros64(g|^uint64(0)<<i)) & 63
		g >>= zeros
		u <<= zeros
		v <<= zeros
		eta -= int64(zeros)
		i -= zeros
		if i == 0 {
			break
		}
		var w, m uint64
		if eta < 0 {
			eta = -eta
			f, g = g, -f
			u, q = q, -u
			v, r = r, -v
			// w = −g/f mod 2⁶, with f⁻¹ = f·(2 − f²) mod 2⁶.
			m = (^uint64(0) >> (64 - min(uint(eta)+1, i))) & 63
			w = (f * g * (f*f - 2)) & m
		} else {
			// w = −g/f mod 2⁴.
			m = (^uint64(0) >> (64 - min(uint(eta)+1, i))) & 15
			w = f + (((f + 1) & 4) << 1)
			w = (-w * g) & m
		}
		g += f * w
		q += u * w
		r += v * w
	}
	return eta, transition{int64(u), int64(v), int64(q), int64(r)}
}

// updateDE sets (d, e) = (u·d + v·e, q·d + r·e) / 2⁶² mod p, first adding
// the multiples of p that make both numerators divisible by 2⁶². d and e
// stay in (−2p, p).
func (t *transition) updateDE(d, e *signed62) {
	// Start from p·[d < 0]·(u, q) + p·[e < 0]·(v, r), which brings the
	// outputs back above −2p.
	sd, se := d[4]>>63, e[4]>>63
	md := t.u&sd + t.v&se
	me := t.q&sd + t.r&se
	cd := mul128(t.u, d[0]).addMul(t.v, e[0])
	ce := mul128(t.q, d[0]).addMul(t.r, e[0])
	md -= int64((pInv62*cd.lo + uint64(md)) & m62)
	me -= int64((pInv62*ce.lo + uint64(me)) & m62)
	cd = cd.addMul(p62[0], md).shr62()
	ce = ce.addMul(p62[0], me).shr62()
	for i := 1; i < 4; i++ { // p62[1:4] are zero
		cd = cd.addMul(t.u, d[i]).addMul(t.v, e[i])
		ce = ce.addMul(t.q, d[i]).addMul(t.r, e[i])
		d[i-1], cd = int64(cd.lo&m62), cd.shr62()
		e[i-1], ce = int64(ce.lo&m62), ce.shr62()
	}
	cd = cd.addMul(t.u, d[4]).addMul(t.v, e[4]).addMul(p62[4], md)
	ce = ce.addMul(t.q, d[4]).addMul(t.r, e[4]).addMul(p62[4], me)
	d[3], cd = int64(cd.lo&m62), cd.shr62()
	e[3], ce = int64(ce.lo&m62), ce.shr62()
	d[4], e[4] = int64(cd.lo), int64(ce.lo)
}

// updateFG sets (f, g) = (u·f + v·g, q·f + r·g) / 2⁶² on their first
// len(f) limbs; the divsteps made both numerators divisible by 2⁶².
func (t *transition) updateFG(f, g []int64) {
	n := len(f)
	cf := mul128(t.u, f[0]).addMul(t.v, g[0]).shr62()
	cg := mul128(t.q, f[0]).addMul(t.r, g[0]).shr62()
	for i := 1; i < n; i++ {
		cf = cf.addMul(t.u, f[i]).addMul(t.v, g[i])
		cg = cg.addMul(t.q, f[i]).addMul(t.r, g[i])
		f[i-1], cf = int64(cf.lo&m62), cf.shr62()
		g[i-1], cg = int64(cg.lo&m62), cg.shr62()
	}
	f[n-1], g[n-1] = int64(cf.lo), int64(cg.lo)
}

// normalize62 returns r·sign(s) reduced into [0, p), for r in (−2p, p)
// with limbs in (−2⁶², 2⁶²).
func normalize62(r *signed62, s int64) *signed62 {
	if r[4] < 0 {
		r.add(&p62)
	}
	if s < 0 {
		for i := range r {
			r[i] = -r[i]
		}
	}
	r.carry()
	if r[4] < 0 {
		r.add(&p62)
		r.carry()
	}
	return r
}

func (r *signed62) add(a *signed62) {
	for i := range r {
		r[i] += a[i]
	}
}

// carry moves each limb's bits above 62 into the next limb.
func (r *signed62) carry() {
	for i := 0; i < 4; i++ {
		r[i+1] += r[i] >> 62
		r[i] &= m62
	}
}

// toSigned62 returns z reduced mod p as signed62, every limb in [0, 2⁶²).
func toSigned62(z *fieldElement) signed62 {
	t := *z
	t.reduce()
	w0 := t.l0 | t.l1<<51
	w1 := t.l1>>13 | t.l2<<38
	w2 := t.l2>>26 | t.l3<<25
	w3 := t.l3>>39 | t.l4<<12
	return signed62{
		int64(w0 & m62),
		int64((w0>>62 | w1<<2) & m62),
		int64((w1>>60 | w2<<4) & m62),
		int64((w2>>58 | w3<<6) & m62),
		int64(w3 >> 56),
	}
}

// fromSigned62 sets v to r, an integer in [0, p) with limbs in [0, 2⁶²).
func (v *fieldElement) fromSigned62(r *signed62) *fieldElement {
	w0 := uint64(r[0]) | uint64(r[1])<<62
	w1 := uint64(r[1])>>2 | uint64(r[2])<<60
	w2 := uint64(r[2])>>4 | uint64(r[3])<<58
	w3 := uint64(r[3])>>6 | uint64(r[4])<<56
	v.l0 = w0 & maskLow51Bits
	v.l1 = (w0>>51 | w1<<13) & maskLow51Bits
	v.l2 = (w1>>38 | w2<<26) & maskLow51Bits
	v.l3 = (w2>>25 | w3<<39) & maskLow51Bits
	v.l4 = w3 >> 12
	return v
}

// int128 is a signed 128-bit integer in two's complement, hi:lo.
type int128 struct{ hi, lo uint64 }

// mul128 returns a·b.
func mul128(a, b int64) int128 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return int128{hi, lo}
}

// addMul returns x + a·b.
func (x int128) addMul(a, b int64) int128 {
	m := mul128(a, b)
	lo, c := bits.Add64(x.lo, m.lo, 0)
	return int128{x.hi + m.hi + c, lo}
}

// shr62 returns x >> 62, rounding towards −∞.
func (x int128) shr62() int128 {
	return int128{uint64(int64(x.hi) >> 62), x.lo>>62 | x.hi<<2}
}
