package meta

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/identity"
)

// goldenItem is a fixed item whose canonical bytes were recorded when they
// were also the wire form (the last fixed-width commit).
func goldenItem(t *testing.T) *Item {
	t.Helper()
	it, _ := sampleItem(t, rand.New(rand.NewSource(1)))
	it.Properties = "Camera"
	it.Sign(identity.GenerateSeeded(rand.New(rand.NewSource(1))))
	it.StoringNodes = []int{3, -1, 700}
	return it
}

const (
	goldenSigning = "6ef5c648377b9b16b66c0216a9b275fa983424d21012706d3642a9c447ca88c3" +
		"000000104169725175616c6974792f504d322e3500000099ab10c80040445c28" +
		"f5c28f5cc0528000000000000000000a4e6577596f726b2c4e597890320d1f0a" +
		"60cf9a11c183aedb5c0b889760a2e89d3ef2da14160b7faf981100000020448f" +
		"8c6c802a59170392e8b3d8d21f33f0c8acae953dd5b79b19ad7eb48a8d110000" +
		"4e94914f00000000000643616d6572610000000000100000"
	goldenTail = "0000004073ed889d914dbd6b8af818397e8e6029b09eb85e88b2c854c58effb0" +
		"5f39048217bcdbeaa2c3c7ada05e74aca6d3eaf6e52710305f3aabcac5db0d65" +
		"62f6910c00000000000000030000000000000003ffffffffffffffff00000000" +
		"000002bc"
)

// TestEncodingGolden pins the canonical bytes — what producers sign and
// blocks hash, recorded at the last fixed-width commit; a change to either
// string forks every chain — and the size of the wire form beside them.
func TestEncodingGolden(t *testing.T) {
	it := goldenItem(t)
	if got := hex.EncodeToString(it.SigningBytes()); got != goldenSigning {
		t.Fatalf("SigningBytes changed:\n got %s\nwant %s", got, goldenSigning)
	}
	canon := it.AppendCanonical([]byte("xy"))
	if string(canon[:2]) != "xy" || hex.EncodeToString(canon[2:]) != goldenSigning+goldenTail {
		t.Fatalf("AppendCanonical changed or clobbered dst:\n got %x\nwant %s", canon[2:], goldenSigning+goldenTail)
	}
	if it.CanonicalSize() != 284 {
		t.Fatalf("CanonicalSize = %d, want 284", it.CanonicalSize())
	}
	// The pinned signature verifies over the pinned bytes with the pinned
	// key, without going through Item at all.
	signing, _ := hex.DecodeString(goldenSigning)
	tail, _ := hex.DecodeString(goldenTail)
	pub := signing[126 : 126+ed25519.PublicKeySize]
	if !ed25519.Verify(pub, signing, tail[4:4+ed25519.SignatureSize]) || it.Verify() != nil {
		t.Fatal("the golden signature no longer verifies over the golden signing bytes")
	}

	// Wire form, fixed width → varint: 284 → 202 B (no Producer, 1-byte
	// lengths, 6- and 7-byte durations, a 3-byte size, 1–2-byte node
	// indices). The canonical vector carries a -1 the wire form has no
	// encoding for.
	it.StoringNodes = []int{3, 1, 700}
	enc := it.Encode()
	if it.EncodedSize() != 202 || it.EncodedSize() != len(enc) {
		t.Fatalf("EncodedSize = %d, len(Encode) = %d, want 202", it.EncodedSize(), len(enc))
	}
	if got := it.AppendEncode([]byte("xy")); string(got[:2]) != "xy" || !bytes.Equal(got[2:], enc) {
		t.Fatal("AppendEncode must append to dst and leave its prefix alone")
	}
	empty := &Item{}
	if empty.EncodedSize() != len(empty.Encode()) {
		t.Fatalf("zero item: EncodedSize %d, len(Encode) %d", empty.EncodedSize(), len(empty.Encode()))
	}
}

func stats(c *SigCache) [2]uint64 {
	h, m := c.Stats()
	return [2]uint64{h, m}
}

// A failed verification leaves nothing behind: the second attempt on the
// same forged bytes is a miss and an error again.
func TestVerifyCachedNeverCachesFailure(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(4)))
	it.Signature[5] ^= 1
	var c SigCache
	for i := 1; i <= 2; i++ {
		if err := it.VerifyCached(&c); err == nil {
			t.Fatalf("attempt %d: forged item verified", i)
		}
		if got := stats(&c); got != [2]uint64{0, uint64(i)} {
			t.Fatalf("attempt %d: hits/misses = %v, want 0/%d", i, got, i)
		}
		if first := c.FirstChecks(); first != uint64(i) {
			t.Fatalf("attempt %d: %d first checks, want %d: a key that never verified gets no tables", i, first, i)
		}
	}
	if c.cur != nil || c.old != nil {
		t.Fatal("a cache that never stored anything must hold and allocate nothing")
	}
	unsigned := &Item{Type: "x"}
	if err := unsigned.VerifyCached(&c); err != ErrUnsigned {
		t.Fatalf("unsigned: err = %v, want ErrUnsigned", err)
	}
}

// After a warm hit, changing any byte identity.Verify reads is a miss and
// an error — Verify's error — and changing only the storing nodes is a hit.
// The producer key has verified once here, so the first mutation that keeps
// it builds its tables and the rest run on them.
func TestVerifyCachedKeyCoversEverySignedByte(t *testing.T) {
	base, _ := sampleItem(t, rand.New(rand.NewSource(2)))
	var c SigCache
	coversEverySignedByte(t, &c, base)
	if built, held := c.Tables(); built != 1 || held != 1 {
		t.Fatalf("tables built/held = %d/%d, want the producer's once", built, held)
	}
}

// The same with the producer key tabled before the first check.
func TestVerifyCachedKeyCoversEverySignedByteTabled(t *testing.T) {
	base, id := sampleItem(t, rand.New(rand.NewSource(2)))
	var c SigCache
	tableKey(t, &c, base, id)
	coversEverySignedByte(t, &c, base)
	if built, held := c.Tables(); built != 1 || held != 1 {
		t.Fatalf("tables built/held = %d/%d, want the producer's once", built, held)
	}
}

// tableKey verifies two fresh items of id's through c: the first is a first
// check, the second builds the key's tables.
func tableKey(t *testing.T, c *SigCache, base *Item, id *identity.Identity) {
	t.Helper()
	for n := 1; n <= 2; n++ {
		other := base.Clone()
		other.DataSize += n
		other.Sign(id)
		if err := other.VerifyCached(c); err != nil {
			t.Fatal(err)
		}
	}
	if built, held := c.Tables(); built != 1 || held != 1 || c.FirstChecks() != 1 {
		t.Fatalf("after two items tables built/held = %d/%d, first checks %d, want 1/1, 1", built, held, c.FirstChecks())
	}
}

func coversEverySignedByte(t *testing.T, c *SigCache, base *Item) {
	start := stats(c)
	if err := base.VerifyCached(c); err != nil {
		t.Fatal(err)
	}
	if err := base.VerifyCached(c); err != nil || stats(c) != [2]uint64{start[0] + 1, start[1] + 1} {
		t.Fatalf("warm repeat: err %v, hits/misses %v -> %v, want one of each", err, start, stats(c))
	}
	mutations := map[string]func(*Item){
		"type":      func(it *Item) { it.Type = "Picture/Traffic" },
		"time":      func(it *Item) { it.Produced++ },
		"locationX": func(it *Item) { it.Location.X += 0.01 },
		"locationY": func(it *Item) { it.Location.Y += 0.01 },
		"locname":   func(it *Item) { it.LocationName = "Nassau,NY" },
		"validfor":  func(it *Item) { it.ValidFor += time.Minute },
		"props":     func(it *Item) { it.Properties = "Camera" },
		"datasize":  func(it *Item) { it.DataSize++ },
		"id":        func(it *Item) { it.ID[0] ^= 1 },
		"pubkey":    func(it *Item) { it.ProducerPub[31] ^= 1 },
		"address":   func(it *Item) { it.Producer[0] ^= 1 },
		"signature": func(it *Item) { it.Signature[63] ^= 1 },
		"sigshort":  func(it *Item) { it.Signature = it.Signature[:63] },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			it := base.Clone()
			mutate(it)
			before := stats(c)
			err := it.VerifyCached(c)
			if err == nil {
				t.Fatalf("tampered %s verified through a warm cache", name)
			}
			if want := it.Verify(); want == nil || err.Error() != want.Error() {
				t.Fatalf("cached error %q, uncached %v", err, want)
			}
			if got := stats(c); got != [2]uint64{before[0], before[1] + 1} {
				t.Fatalf("hits/misses %v -> %v, want one more miss", before, got)
			}
		})
	}
	placed := base.Clone()
	placed.StoringNodes = []int{10, 11, 12}
	before := stats(c)
	if err := placed.VerifyCached(c); err != nil {
		t.Fatal(err)
	}
	if got := stats(c); got != [2]uint64{before[0] + 1, before[1]} {
		t.Fatalf("storing nodes are outside the signature: hits/misses %v -> %v, want one more hit", before, got)
	}
	if err := base.VerifyCached(nil); err != nil {
		t.Fatalf("nil cache must behave as Verify: %v", err)
	}
}

// A producer's tabled key does not vouch for another account: an item P
// signed claiming Q's address is refused with Verify's error, with both
// keys tabled, and so is an item carrying Q's key that P signed.
func TestVerifyCachedTabledKeyForeignAddress(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	baseP, p := sampleItem(t, rng)
	baseQ, q := sampleItem(t, rng)
	var c SigCache
	tableKey(t, &c, baseP, p)
	for n := 1; n <= 2; n++ {
		other := baseQ.Clone()
		other.DataSize += n
		other.Sign(q)
		if err := other.VerifyCached(&c); err != nil {
			t.Fatal(err)
		}
	}
	claimsQ := baseP.Clone()
	claimsQ.Producer = q.Address()
	claimsQ.Signature = p.Sign(claimsQ.SigningBytes())
	carriesQ := baseP.Clone()
	carriesQ.Producer, carriesQ.ProducerPub = q.Address(), q.PublicKey()
	carriesQ.Signature = p.Sign(carriesQ.SigningBytes())
	for name, it := range map[string]*Item{"P's key, Q's address": claimsQ, "Q's key and address, P's signature": carriesQ} {
		err := it.VerifyCached(&c)
		if want := it.Verify(); err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: cached %v, uncached %v", name, err, want)
		}
	}
	if built, held := c.Tables(); built != 2 || held != 2 {
		t.Fatalf("tables built/held = %d/%d, want P's and Q's", built, held)
	}
}

// VerifyCached from several goroutines through one cache — as
// AdoptSuffix's VerifyWorkers call it — gives every item Verify's verdict;
// racing goroutines build a producer's tables at most once each.
func TestVerifyCachedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const producers, workers = 4, 4
	var items []*Item
	for p := 0; p < producers; p++ {
		base, id := sampleItem(t, rng)
		for i := 0; i < 16; i++ {
			it := base.Clone()
			it.DataSize = i + 1
			it.Sign(id)
			if i%5 == 4 {
				it.Signature[7] ^= 1
			}
			items = append(items, it)
		}
	}
	want := make([]string, len(items))
	for i, it := range items {
		want[i] = fmt.Sprint(it.Verify())
	}
	var c SigCache
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range items {
					j := (i*7 + w*13) % len(items)
					if got := fmt.Sprint(items[j].VerifyCached(&c)); got != want[j] {
						t.Errorf("item %d: VerifyCached %s, Verify %s", j, got, want[j])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if built, held := c.Tables(); held != producers || built < producers || built > producers*workers {
		t.Fatalf("tables built/held = %d/%d, want %d held, built once per racing goroutine at most", built, held, producers)
	}
}

func testKey(i int) (k [sha256.Size]byte) {
	binary.BigEndian.PutUint64(k[:], uint64(i))
	return k
}

// The cache never holds more than two generations, and the newest
// sigCacheGen inserts are always among them.
func TestSigCacheBound(t *testing.T) {
	var c SigCache
	const n = 4 * sigCacheGen
	for i := 0; i < n; i++ {
		c.add(testKey(i))
		if held := len(c.cur) + len(c.old); held > 2*sigCacheGen {
			t.Fatalf("after %d inserts the cache holds %d keys, bound is %d", i+1, held, 2*sigCacheGen)
		}
	}
	for i := n - sigCacheGen; i < n; i++ {
		if !c.lookup(testKey(i)) {
			t.Fatalf("key %d of the newest generation was evicted", i)
		}
	}
	if c.lookup(testKey(0)) {
		t.Fatal("the oldest key survived 4 generations of inserts")
	}
}

// The key table never holds more than two generations; a key found in the
// old one moves to the current one, so a key in use survives any number of
// newcomers, and one not used is dropped.
func TestSigCacheKeyBound(t *testing.T) {
	_, id := sampleItem(t, rand.New(rand.NewSource(8)))
	vk, err := identity.NewVerifyKey(id.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	pub := func(i int) (p [ed25519.PublicKeySize]byte) {
		binary.BigEndian.PutUint64(p[:], uint64(i))
		return p
	}
	var c SigCache
	const n = 4 * keyCacheGen
	for i := 0; i < n; i++ {
		c.putKey(pub(i), vk)
		if got, seen := c.verifyKey(pub(0)); !seen || got != vk {
			t.Fatalf("after %d inserts the key in use was dropped", i+1)
		}
		if held := len(c.keys) + len(c.oldKeys); held > 2*keyCacheGen {
			t.Fatalf("after %d inserts the key table holds %d keys, bound is %d", i+1, held, 2*keyCacheGen)
		}
	}
	if _, seen := c.verifyKey(pub(1)); seen {
		t.Fatal("an unused key survived 4 generations of inserts")
	}
	if built, held := c.Tables(); built != n || held > 2*keyCacheGen {
		t.Fatalf("tables built/held = %d/%d, want %d built, at most %d held", built, held, n, 2*keyCacheGen)
	}
}

// A warm VerifyCached builds its key in one buffer and nothing else.
func TestVerifyCachedWarmAllocs(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(3)))
	var c SigCache
	if err := it.VerifyCached(&c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := it.VerifyCached(&c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("warm VerifyCached allocates %.0f times, want at most 1", allocs)
	}
}
