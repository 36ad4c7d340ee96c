package identity

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"sync"
)

// The tabled check evaluates crypto/ed25519's equation R = [S]B + [k](−A)
// as Σ_i 2^(32i)·([S_i]B + [k_i](−A)), where S_i and k_i are the digits of
// S's and k's NAFs at positions 32i … 32i+31. Each of the sixteen terms
// reads a table of odd multiples of 2^(32i)·B or 2^(32i)·(−A), so one pass
// over 32 positions — 32 doublings instead of ≈ 253 — adds them all
// (Straus's trick). The group element is the one crypto/ed25519 computes,
// so the two accept exactly the same signatures.
const (
	stripes    = 8
	stripeBits = 256 / stripes
)

// keyTable and baseTable are how many odd multiples Q, 3Q, 5Q, … one
// stripe's table holds: k's width-4 NAF digits are below 8, S's width-8 ones
// below 128.
const (
	keyTable  = 4
	baseTable = 64
)

// VerifyKey is an ed25519 public key decoded once, with width-4 NAF tables
// of −2³²ⁱA for i = 0…7 (32 affine points, 3 840 B) and the address the
// key hashes to. A VerifyKey is immutable and safe for concurrent use.
type VerifyKey struct {
	pub    [ed25519.PublicKeySize]byte
	addr   Address
	tables [stripes * keyTable]affineCached
}

// NewVerifyKey decodes pub and builds its tables. It fails when pub is not
// 32 bytes or not the encoding of a curve point; ed25519.Verify rejects
// every signature under such a key.
func NewVerifyKey(pub ed25519.PublicKey) (*VerifyKey, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, errKeySize(len(pub))
	}
	var a point
	if _, err := a.SetBytes(pub); err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	k := &VerifyKey{pub: [ed25519.PublicKeySize]byte(pub), addr: AddressOf(pub)}
	var pts [len(k.tables)]point
	var scratch [len(k.tables)]fieldElement
	stripeMultiples(pts[:], a.Negate(&a), keyTable)
	toAffine(k.tables[:], pts[:], scratch[:])
	return k, nil
}

// baseTables holds width-8 NAF tables of 2³²ⁱB for i = 0…7 (512 affine
// points, 61 KB), shared by the process like crypto/ed25519's table of B:
// B is a constant, so sharing them hides no per-node work.
var baseTables = sync.OnceValue(func() *[stripes * baseTable]affineCached {
	var t [stripes * baseTable]affineCached
	pts := make([]point, len(t))
	stripeMultiples(pts, generator, baseTable)
	toAffine(t[:], pts, make([]fieldElement, len(t)))
	return &t
})

// stripeMultiples sets pts[n·i + j] = (2j + 1)·2^(stripeBits·i)·q for
// i < stripes and j < n.
func stripeMultiples(pts []point, q *point, n int) {
	var sum projP1xP1
	var acc projP2
	var q2 projCached
	var dbl point
	s := *q
	for i := 0; i < stripes; i++ {
		if i > 0 {
			acc.FromP3(&s)
			for range stripeBits {
				acc.FromP1xP1(sum.Double(&acc))
			}
			s.fromP2(&acc)
		}
		row := pts[n*i : n*i+n]
		row[0] = s
		q2.FromP3(dbl.Add(&s, &s))
		for j := 1; j < n; j++ {
			row[j].fromP1xP1(sum.Add(&row[j-1], &q2))
		}
	}
}

// toAffine sets out[i] to pts[i] divided through by its Z, spending one
// field inversion on all of them (Montgomery's trick: no curve point has
// Z = 0). prod is scratch as long as pts.
func toAffine(out []affineCached, pts []point, prod []fieldElement) {
	prod[0] = pts[0].z
	for i := 1; i < len(pts); i++ {
		prod[i].Multiply(&prod[i-1], &pts[i].z)
	}
	var inv, zInv fieldElement
	inv.InvertVar(&prod[len(pts)-1])
	for i := len(pts) - 1; i >= 0; i-- {
		// inv is 1/(z₀⋯zᵢ) here; zInv becomes 1/zᵢ and inv 1/(z₀⋯zᵢ₋₁).
		zInv = inv
		if i > 0 {
			zInv.Multiply(&inv, &prod[i-1])
			inv.Multiply(&inv, &pts[i].z)
		}
		p, v := &pts[i], &out[i]
		v.YplusX.Add(&p.y, &p.x)
		v.YplusX.Multiply(&v.YplusX, &zInv)
		v.YminusX.Subtract(&p.y, &p.x)
		v.YminusX.Multiply(&v.YminusX, &zInv)
		v.T2d.Multiply(&p.t, d2)
		v.T2d.Multiply(&v.T2d, &zInv)
	}
}

// Verify is Verify(pub, addr, msg, sig) for the key's pub: the same
// address binding, the same signature verdict and the same errors.
func (k *VerifyKey) Verify(addr Address, msg, sig []byte) error {
	if k.addr != addr {
		return errAddressMismatch(addr)
	}
	if !k.verify(msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// verify is ed25519.Verify(k.pub, msg, sig) on the key's tables.
func (k *VerifyKey) verify(msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 || !isReduced(sig[32:]) {
		return false
	}
	c := challenge(sig[:32], k.pub[:], msg)
	var s [4]uint64
	loadLimbs(s[:], sig[32:])
	var kNaf, sNaf [256]int8
	naf(&kNaf, &c, 4)
	naf(&sNaf, &s, 8)
	base := baseTables()

	var acc projP2
	var sum projP1xP1
	var p point
	acc.Zero()
	for j := stripeBits - 1; j >= 0; j-- {
		sum.Double(&acc)
		for i := 0; i < stripes; i++ {
			sum.addDigit(&p, k.tables[keyTable*i:], kNaf[i*stripeBits+j])
			sum.addDigit(&p, base[baseTable*i:], sNaf[i*stripeBits+j])
		}
		acc.FromP1xP1(&sum)
	}
	var r [32]byte
	return bytes.Equal(sig[:32], p.fromP2(&acc).bytes(&r))
}

// addDigit adds d·Q to v for a NAF digit d, where tab starts Q, 3Q, 5Q, …;
// p is scratch.
func (v *projP1xP1) addDigit(p *point, tab []affineCached, d int8) {
	switch {
	case d > 0:
		v.AddAffine(p.fromP1xP1(v), &tab[d/2])
	case d < 0:
		v.SubAffine(p.fromP1xP1(v), &tab[-d/2])
	}
}
