package identity

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"
)

// stdlibVerdict is what crypto/ed25519 says about (pub, msg, sig); it
// panics on a key that is not 32 bytes, where every verdict is "no".
func stdlibVerdict(pub, msg, sig []byte) bool {
	return len(pub) == ed25519.PublicKeySize && ed25519.Verify(pub, msg, sig)
}

// differ returns crypto/ed25519's verdict on (pub, msg, sig) and how the
// tabled verify or the first check disagrees with it, or nil. k is pub's
// VerifyKey, nil when NewVerifyKey refused pub.
func differ(k *VerifyKey, pub, msg, sig []byte) (bool, error) {
	want := stdlibVerdict(pub, msg, sig)
	if first := VerifyFirst(pub, AddressOf(pub), msg, sig) == nil; first != want {
		return want, fmt.Errorf("pub %x msg %x sig %x: first check %v, crypto/ed25519 %v", pub, msg, sig, first, want)
	}
	if k == nil {
		if want {
			return want, fmt.Errorf("crypto/ed25519 accepts a signature under %x, which NewVerifyKey refused", pub)
		}
		return want, nil
	}
	if got := k.verify(msg, sig); got != want {
		return want, fmt.Errorf("pub %x msg %x sig %x: tabled %v, crypto/ed25519 %v", pub, msg, sig, got, want)
	}
	return want, nil
}

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// lowOrder lists encodings of the eight points of order 1, 2, 4 and 8,
// plus non-canonical encodings of some of them (x = 0 with the sign bit
// set, y ≥ p). crypto/ed25519 accepts all of them as public keys and as R.
var lowOrder = [][]byte{
	mustHex("0100000000000000000000000000000000000000000000000000000000000000"), // identity
	mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // order 2
	mustHex("0000000000000000000000000000000000000000000000000000000000000000"), // order 4
	mustHex("0000000000000000000000000000000000000000000000000000000000000080"), // order 4
	mustHex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a"), // order 8
	mustHex("c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa"), // order 8
	mustHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05"), // order 8
	mustHex("26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85"), // order 8
	mustHex("0100000000000000000000000000000000000000000000000000000000000080"), // identity, x = 0 signed
	mustHex("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // identity, y = p + 1
	mustHex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // order 4, y = p
	mustHex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"), // order 2, x = 0 signed
}

// The low-order list is what it says: every entry decodes, and eight
// times it is the identity.
func TestLowOrderPoints(t *testing.T) {
	var id [32]byte
	copy(id[:], lowOrder[0])
	for _, enc := range lowOrder {
		p, err := new(point).SetBytes(enc)
		if err != nil {
			t.Fatalf("%x: %v", enc, err)
		}
		for i := 0; i < 3; i++ {
			p.Add(p, p)
		}
		var got [32]byte
		if p.bytes(&got); got != id {
			t.Fatalf("8·%x = %x, want the identity", enc, got)
		}
	}
}

// TestVerifyKeyRFC8032 runs the RFC 8032 §7.1 Ed25519 vectors (TEST 1, 2,
// 3 and SHA(abc)): the key derives from the secret, signing reproduces the
// signature, the tabled verify, the first check and crypto/ed25519 accept
// it and all three reject it one bit off.
func TestVerifyKeyRFC8032(t *testing.T) {
	for _, v := range []struct{ secret, pub, msg, sig string }{
		{"9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
			"d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
			"e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155" +
				"5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
		{"4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
			"3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
			"92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da" +
				"085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
		{"c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
			"fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
			"6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac" +
				"18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
		{"833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
			"ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
			"ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a" +
				"2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
			"dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589" +
				"09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
	} {
		priv := ed25519.NewKeyFromSeed(mustHex(v.secret))
		pub, msg, sig := mustHex(v.pub), mustHex(v.msg), mustHex(v.sig)
		if !bytes.Equal(priv.Public().(ed25519.PublicKey), pub) || !bytes.Equal(ed25519.Sign(priv, msg), sig) {
			t.Fatalf("vector %s: key or signature does not derive from the secret", v.pub[:8])
		}
		k, err := NewVerifyKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		if !k.verify(msg, sig) || !verifyFirst(pub, msg, sig) || !ed25519.Verify(pub, msg, sig) {
			t.Fatalf("vector %s rejected", v.pub[:8])
		}
		for _, bit := range []int{0, 255, 256, 511} {
			bad := bytes.Clone(sig)
			bad[bit/8] ^= 1 << (bit % 8)
			if k.verify(msg, bad) || verifyFirst(pub, msg, bad) || ed25519.Verify(pub, msg, bad) {
				t.Fatalf("vector %s accepted with signature bit %d flipped", v.pub[:8], bit)
			}
		}
	}
}

// TestVerifyKeyMatchesStdlib is the differential: over 100 000 cases (5 000
// under -short) the tabled verify, the first check and crypto/ed25519.Verify
// give the same verdict — valid signatures, flipped signature and message bits, random
// signatures, S ≥ ℓ, high bits in sig[63], a wrong key or message, R =
// identity, and random, low-order and non-canonical 32-byte keys. Four
// seeded workers split the cases, so the set is the same on any machine.
func TestVerifyKeyMatchesStdlib(t *testing.T) {
	cases := 100_000
	if testing.Short() {
		cases = 5_000
	}
	const workers = 4
	for w := int64(1); w <= workers; w++ {
		t.Run(fmt.Sprint("seed", w), func(t *testing.T) {
			t.Parallel()
			differential(t, mrand.New(mrand.NewSource(w)), cases/workers)
		})
	}
}

func differential(t *testing.T, rng *mrand.Rand, cases int) {
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	// 32 signers with 32 signed messages each; cases mutate copies.
	type signed struct {
		pub      ed25519.PublicKey
		k        *VerifyKey
		msg, sig []byte
	}
	var pool []signed
	for i := 0; i < 32; i++ {
		id := GenerateSeeded(rng)
		k, err := NewVerifyKey(id.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 32; j++ {
			msg := randBytes(rng.Intn(300))
			pool = append(pool, signed{id.PublicKey(), k, msg, id.Sign(msg)})
		}
	}
	// scalar returns a random S below ℓ, little-endian.
	scalar := func() []byte {
		s := make([]byte, 32)
		leFill(s, new(big.Int).Rand(rng, order))
		return s
	}
	accepted := 0
	for i := 0; i < cases; i++ {
		s := pool[rng.Intn(len(pool))]
		pub, k, msg, sig := s.pub, s.k, bytes.Clone(s.msg), bytes.Clone(s.sig)
		switch i % 10 {
		case 0: // valid
		case 1:
			bit := rng.Intn(512)
			sig[bit/8] ^= 1 << (bit % 8)
		case 2:
			msg = append(msg, 0)
			bit := rng.Intn(8 * len(msg))
			msg[bit/8] ^= 1 << (bit % 8)
		case 3:
			sig = randBytes(64)
			sig[63] &= 0x1f
		case 4: // S ≥ ℓ: ℓ plus a small or a random 252-bit offset
			off := big.NewInt(rng.Int63n(1 << 20))
			if rng.Intn(2) == 0 {
				off.Rand(rng, new(big.Int).Lsh(big.NewInt(1), 252))
			}
			leFill(sig[32:], new(big.Int).Add(order, off))
		case 5:
			sig[63] |= 1 << (5 + rng.Intn(3))
		case 6: // R = identity, S random below ℓ
			copy(sig, lowOrder[rng.Intn(2)*8])
			copy(sig[32:], scalar())
		case 7: // somebody else's key, or another message
			other := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				pub, k = other.pub, other.k
			} else {
				msg = other.msg
			}
		case 8, 9: // a random or low-order key, R low-order, S zero or random
			if i%10 == 8 {
				pub = randBytes(32)
				if rng.Intn(4) == 0 { // y ≥ p: p + δ, δ < 19
					pub = mustHex("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f")
					pub[0] += byte(rng.Intn(19))
					pub[31] |= byte(rng.Intn(2)) << 7
				}
			} else {
				pub = lowOrder[rng.Intn(len(lowOrder))]
			}
			var err error
			if k, err = NewVerifyKey(pub); err != nil {
				k = nil
			}
			copy(sig, lowOrder[rng.Intn(len(lowOrder))])
			if rng.Intn(2) == 0 {
				clear(sig[32:])
			} else {
				copy(sig[32:], scalar())
			}
		}
		ok, err := differ(k, pub, msg, sig)
		if err != nil {
			t.Fatalf("case %d (kind %d): %v", i, i%10, err)
		}
		if ok {
			accepted++
		}
	}
	// Valid signatures are a tenth of the cases; low-order keys with a
	// low-order R and S = 0 add some more.
	if accepted < cases/10 || accepted > cases/5 {
		t.Fatalf("%d of %d cases verified, want between a tenth and a fifth", accepted, cases)
	}
}

// FuzzVerifyKey holds the tabled verify and the first check to
// crypto/ed25519's verdict on any key, message and signature.
func FuzzVerifyKey(f *testing.F) {
	id := GenerateSeeded(mrand.New(mrand.NewSource(2)))
	msg := []byte("fuzz")
	f.Add([]byte(id.PublicKey()), msg, id.Sign(msg))
	f.Add(lowOrder[0], msg, append(bytes.Clone(lowOrder[0]), make([]byte, 32)...))
	f.Add(lowOrder[1], msg, append(bytes.Clone(lowOrder[0]), make([]byte, 32)...))
	f.Add(lowOrder[9], []byte{}, make([]byte, 64))
	f.Fuzz(func(t *testing.T, pub, msg, sig []byte) {
		k, err := NewVerifyKey(pub)
		if err != nil {
			k = nil
		}
		if _, err := differ(k, pub, msg, sig); err != nil {
			t.Fatal(err)
		}
	})
}

// VerifyKey.Verify and VerifyFirst answer what Verify answers, error for
// error: a wrong address is refused before the signature is read.
func TestVerifyKeyErrorsMatchVerify(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	a, b := GenerateSeeded(rng), GenerateSeeded(rng)
	k, err := NewVerifyKey(a.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("payload")
	good := a.Sign(msg)
	for name, c := range map[string]struct {
		addr     Address
		msg, sig []byte
	}{
		"valid":         {a.Address(), msg, good},
		"foreign addr":  {b.Address(), msg, good},
		"other signer":  {a.Address(), msg, b.Sign(msg)},
		"short sig":     {a.Address(), msg, good[:63]},
		"tampered":      {a.Address(), []byte("payloaD"), good},
		"foreign+wrong": {b.Address(), msg, b.Sign(msg)},
	} {
		want, got := Verify(a.PublicKey(), c.addr, c.msg, c.sig), k.Verify(c.addr, c.msg, c.sig)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyKey.Verify = %v, Verify = %v", name, got, want)
		}
		if first := VerifyFirst(a.PublicKey(), c.addr, c.msg, c.sig); fmt.Sprint(first) != fmt.Sprint(want) {
			t.Errorf("%s: VerifyFirst = %v, Verify = %v", name, first, want)
		}
	}
	for _, pub := range [][]byte{a.PublicKey()[:31], mustHex("0200000000000000000000000000000000000000000000000000000000000000")} {
		if _, err := NewVerifyKey(pub); err == nil {
			t.Errorf("NewVerifyKey(%x) accepted a key that is not a point encoding", pub)
		}
		addr := AddressOf(pub)
		if want, got := Verify(pub, addr, good, good), VerifyFirst(pub, addr, good, good); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("key %x: VerifyFirst = %v, Verify = %v", pub, got, want)
		}
	}
}

// order is ℓ = 2²⁵² + 27742317777372353535851937790883648493, the order of
// the group generated by B.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// ℓ and the copied code's ℓ − 1 are the same number.
func TestOrderMatchesScalarBytes(t *testing.T) {
	var le [32]byte
	leFill(le[:], new(big.Int).Sub(order, big.NewInt(1)))
	if le != scalarMinusOneBytes {
		t.Fatalf("ℓ − 1 = %x, scalarMinusOneBytes = %x", le, scalarMinusOneBytes)
	}
}

// The portable field multiply agrees with the one the build uses (the
// amd64 assembly unless -tags purego).
func TestFieldGenericMatchesBuild(t *testing.T) {
	rng := mrand.New(mrand.NewSource(4))
	elem := func() *fieldElement {
		var b [32]byte
		rng.Read(b[:])
		e, _ := new(fieldElement).SetBytes(b[:])
		return e
	}
	for i := 0; i < 10_000; i++ {
		x, y := elem(), elem()
		var got, want fieldElement
		feMul(&got, x, y)
		feMulGeneric(&want, x, y)
		if got.Equal(&want) != 1 {
			t.Fatalf("feMul(%v, %v): build %v, generic %v", x, y, got, want)
		}
		feSquare(&got, x)
		feSquareGeneric(&want, x)
		if got.Equal(&want) != 1 {
			t.Fatalf("feSquare(%v): build %v, generic %v", x, got, want)
		}
	}
}

// A warm tabled verify allocates nothing, -race or not: the SHA-512 state,
// the digest and k stay on the stack.
func TestVerifyKeyAllocs(t *testing.T) {
	id := GenerateSeeded(mrand.New(mrand.NewSource(5)))
	k, err := NewVerifyKey(id.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 200)
	sig := id.Sign(msg)
	allocs := testing.AllocsPerRun(100, func() {
		if k.Verify(id.Address(), msg, sig) != nil {
			t.Fatal("valid signature rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm tabled verify allocates %.0f times, want 0", allocs)
	}
}

// A warm first check allocates nothing either: both points, their tables
// and the NAFs stay on the stack.
func TestVerifyFirstAllocs(t *testing.T) {
	id := GenerateSeeded(mrand.New(mrand.NewSource(8)))
	msg := make([]byte, 200)
	sig := id.Sign(msg)
	allocs := testing.AllocsPerRun(100, func() {
		if VerifyFirst(id.PublicKey(), id.Address(), msg, sig) != nil {
			t.Fatal("valid signature rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm first check allocates %.0f times, want 0", allocs)
	}
}

var benchOK bool

func BenchmarkVerify(b *testing.B) {
	id := GenerateSeeded(mrand.New(mrand.NewSource(6)))
	msg := make([]byte, 200)
	sig := id.Sign(msg)
	k, _ := NewVerifyKey(id.PublicKey())
	b.Run("stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchOK = Verify(id.PublicKey(), id.Address(), msg, sig) == nil
		}
	})
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchOK = VerifyFirst(id.PublicKey(), id.Address(), msg, sig) == nil
		}
	})
	b.Run("tabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchOK = k.Verify(id.Address(), msg, sig) == nil
		}
	})
	b.Run("NewVerifyKey", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k, _ = NewVerifyKey(id.PublicKey())
		}
	})
	// One loop alternates the four, so a machine whose speed drifts
	// between runs still prices a first check, a tabled check and a build
	// in stdlib checks.
	b.Run("interleaved", func(b *testing.B) {
		var stdlib, first, tabled, build time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			benchOK = Verify(id.PublicKey(), id.Address(), msg, sig) == nil
			t1 := time.Now()
			benchOK = VerifyFirst(id.PublicKey(), id.Address(), msg, sig) == nil
			t2 := time.Now()
			benchOK = k.Verify(id.Address(), msg, sig) == nil
			t3 := time.Now()
			k, _ = NewVerifyKey(id.PublicKey())
			t4 := time.Now()
			stdlib, first = stdlib+t1.Sub(t0), first+t2.Sub(t1)
			tabled, build = tabled+t3.Sub(t2), build+t4.Sub(t3)
		}
		b.ReportMetric(float64(first)/float64(stdlib), "first/stdlib")
		b.ReportMetric(float64(tabled)/float64(stdlib), "tabled/stdlib")
		b.ReportMetric(float64(build)/float64(stdlib), "build/stdlib")
	})
}
