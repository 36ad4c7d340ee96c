package block

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/meta"
)

// goldenBlock is a fixed block whose hash was recorded when the hash input
// was also the wire form (the last fixed-width commit).
func goldenBlock(t testing.TB) *Block {
	t.Helper()
	producer := testIdentity(2)
	bld := NewBuilder(Genesis(1), testIdentity(1).Address(), time.Minute, 60, 0.5)
	for i := 0; i < 3; i++ {
		it := signedItem(t, producer, string(rune('a'+i)))
		it.StoringNodes = []int{1, 2 + i}
		bld.AddItem(it)
	}
	return bld.SetStoringNodes([]int{1, 2}).SetPrevStoringNodes([]int{0}).SetRecentAssignees([]int{3}).Seal()
}

// TestEncodingGolden pins hashes recorded at the last fixed-width commit —
// a slip that touches hashed bytes forks every chain and fails here — and
// the wire sizes beside them.
func TestEncodingGolden(t *testing.T) {
	g := Genesis(1)
	// Genesis on the wire, fixed width → varint: 192 → 143 B.
	if got := g.Hash.String(); got != "663b50c64c9166c19d65c168e258b92636f5ffb19aa663c964c5401edcb678f9" || g.EncodedSize() != 143 {
		t.Fatalf("genesis hash %s size %d changed", got, g.EncodedSize())
	}
	b := goldenBlock(t)
	if got := b.Hash.String(); got != "2c09e4af9e95762f354e76d2675fb8e137bbe9b5e7f9e0f1fe9dd6b62d3ae1ca" {
		t.Fatalf("block hash changed: %s", got)
	}
	// The hash input is the parent commit's whole encoding minus its
	// trailing 32-byte hash, so its digest pins the canonical bytes too.
	sum := sha256.Sum256(b.appendHashInput(nil))
	if got := hex.EncodeToString(sum[:]); got != b.Hash.String() || b.hashInputSize() != 1007-sha256.Size {
		t.Fatalf("hash input changed: %d bytes, sha256 %s", b.hashInputSize(), got)
	}
	// Three signed items on the wire: 1007 → 680 B, then 680 → 623 B when
	// items took a flags byte: each leaves out its zero location, empty name
	// and empty properties and its key's and signature's length bytes, 19 B.
	enc := b.Encode()
	if b.EncodedSize() != 623 || len(enc) != 623 || cap(enc) != 623 {
		t.Fatalf("EncodedSize = %d, len(Encode) = %d, cap %d, want 623", b.EncodedSize(), len(enc), cap(enc))
	}
}

func cacheStats(c *meta.SigCache) [2]uint64 {
	h, m := c.Stats()
	return [2]uint64{h, m}
}

// Storing nodes sit outside the producer signature: rewriting them is a
// cache hit for the item, and only the block hash, recomputed on every
// call, catches it.
func TestVerifySelfCachedStillChecksHash(t *testing.T) {
	b := goldenBlock(t)
	var c meta.SigCache
	if err := b.VerifySelfCached(&c); err != nil {
		t.Fatal(err)
	}
	if err := b.VerifySelfCached(&c); err != nil || cacheStats(&c) != [2]uint64{3, 3} {
		t.Fatalf("warm repeat: err %v, hits/misses %v, want 3/3", err, cacheStats(&c))
	}
	moved := b.Clone()
	moved.Items[1].StoringNodes = []int{9, 9}
	if err := moved.Items[1].VerifyCached(&c); err != nil || cacheStats(&c) != [2]uint64{4, 3} {
		t.Fatalf("item with rewritten storing nodes: err %v, hits/misses %v, want a hit", err, cacheStats(&c))
	}
	if err := moved.VerifySelfCached(&c); !errors.Is(err, ErrBadHash) {
		t.Fatalf("block with rewritten storing nodes: err = %v, want ErrBadHash", err)
	}
	moved.Seal()
	if err := moved.VerifySelfCached(&c); err != nil {
		t.Fatalf("re-sealed block: %v", err)
	}
}

// TestVerifySelfCachedMatchesUncached drives random valid, tampered and
// replayed blocks through one warm cache: every verdict must equal
// VerifySelf's.
func TestVerifySelfCachedMatchesUncached(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			producers := []int64{2, 3, 4}
			var items []*meta.Item
			for i := 0; i < 12; i++ {
				items = append(items, signedItem(t, testIdentity(producers[i%len(producers)]), fmt.Sprint("item", i)))
			}
			build := func() *Block {
				bld := NewBuilder(Genesis(1), testIdentity(1).Address(), time.Duration(rng.Intn(1000))*time.Second, 60, 0.5)
				for _, k := range rng.Perm(len(items))[:rng.Intn(5)] {
					it := items[k].Clone()
					it.StoringNodes = []int{rng.Intn(8), rng.Intn(8)}
					bld.AddItem(it)
				}
				return bld.SetStoringNodes([]int{rng.Intn(8)}).Seal()
			}
			tamper := []func(b *Block){
				func(b *Block) { b.Timestamp++ },
				func(b *Block) { b.StoringNodes = []int{99} },
				func(b *Block) { b.Hash[3] ^= 1 },
			}
			tamperItem := []func(it *meta.Item){
				func(it *meta.Item) { it.StoringNodes = []int{99} },
				func(it *meta.Item) { it.Type = "Forged/Type" },
				func(it *meta.Item) { it.DataSize++ },
				func(it *meta.Item) { it.Signature[rng.Intn(64)] ^= 1 },
				func(it *meta.Item) { it.ProducerPub[0] ^= 1 },
				func(it *meta.Item) { it.Producer = testIdentity(9).Address() },
				func(it *meta.Item) { it.Signature = nil },
			}
			var c meta.SigCache
			var seen []*Block
			for step := 0; step < 300; step++ {
				var b *Block
				switch op := rng.Intn(5); {
				case op == 0 && len(seen) > 0:
					b = seen[rng.Intn(len(seen))] // replay, valid or not
				case op == 1:
					b = build()
					tamper[rng.Intn(len(tamper))](b)
				case op <= 3:
					b = build()
					if len(b.Items) > 0 {
						tamperItem[rng.Intn(len(tamperItem))](b.Items[rng.Intn(len(b.Items))])
					}
					if op == 3 {
						b.Seal() // the hash is right, only the signature can object
					}
				default:
					b = build()
				}
				seen = append(seen, b)
				want, got := b.VerifySelf(), b.VerifySelfCached(&c)
				if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
					t.Fatalf("step %d: VerifySelf = %v, VerifySelfCached = %v", step, want, got)
				}
			}
			if hits, misses := c.Stats(); hits == 0 || misses == 0 {
				t.Fatalf("the sequence never exercised both paths: %d hits, %d misses", hits, misses)
			}
		})
	}
}
