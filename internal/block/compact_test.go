package block

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/meta"
)

// poolOf returns a resolver over the block's items as a pool holds them:
// separate copies, without the storing nodes the miner assigned, found by
// short ID.
func poolOf(b *Block) (map[meta.ShortID]*meta.Item, func(meta.ShortID) *meta.Item) {
	pool := make(map[meta.ShortID]*meta.Item, len(b.Items))
	for _, it := range b.Items {
		cp := it.Clone()
		cp.StoringNodes = nil
		pool[it.ID.ShortID()] = cp
	}
	return pool, func(id meta.ShortID) *meta.Item { return pool[id] }
}

func randomList(rng *rand.Rand, maxLen int) []int {
	out := make([]int, rng.Intn(maxLen+1))
	for i := range out {
		out[i] = rng.Intn(1000) // one- and two-byte varints
	}
	return out
}

// randomBlock builds a sealed block with random field values, 0–12 items
// from three producers and random (possibly empty) node lists.
func randomBlock(t testing.TB, rng *rand.Rand) *Block {
	t.Helper()
	bld := NewBuilder(Genesis(rng.Int63()), testIdentity(1+rng.Int63n(5)).Address(),
		time.Duration(rng.Int63n(1<<40)), uint64(rng.Intn(1<<16)), rng.Float64())
	for i, n := 0, rng.Intn(13); i < n; i++ {
		it := signedItem(t, testIdentity(10+rng.Int63n(3)), string(rune('a'+i))+time.Duration(rng.Int63()).String())
		it.StoringNodes = randomList(rng, 4)
		bld.AddItem(it)
	}
	return bld.SetStoringNodes(randomList(rng, 3)).SetPrevStoringNodes(randomList(rng, 3)).
		SetRecentAssignees(randomList(rng, 3)).Seal()
}

// TestCompactRebuildMatchesFullCodec is the codec's contract: for random
// valid blocks, decoding the compact form and rebuilding it from a pool
// gives byte-for-byte what the full codec round trip gives, and the
// rebuilt block verifies.
func TestCompactRebuildMatchesFullCodec(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 200; i++ {
		b := randomBlock(t, rng)
		full, err := Decode(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		enc := b.EncodeCompact()
		if cap(enc) != len(enc) {
			t.Fatalf("block %d: EncodeCompact sized its buffer %d for %d bytes", i, cap(enc), len(enc))
		}
		c, err := DecodeCompact(enc)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		for _, wire := range [][]byte{enc, b.Encode()} {
			if h, ok := EncodedHash(wire); !ok || h != b.Hash {
				t.Fatalf("block %d: EncodedHash reads %v %v off a %d-byte body", i, h, ok, len(wire))
			}
		}
		if _, ok := EncodedHash(enc[:len(Hash{})-1]); ok {
			t.Fatal("EncodedHash read a hash off fewer bytes than one")
		}
		_, resolve := poolOf(b)
		got, missing := c.Rebuild(resolve)
		if got == nil {
			t.Fatalf("block %d: %d items missing from a complete pool", i, len(missing))
		}
		if !bytes.Equal(got.Encode(), full.Encode()) {
			t.Fatalf("block %d (%d items): rebuilt bytes differ from the full codec's", i, len(b.Items))
		}
		if err := got.VerifySelf(); err != nil {
			t.Fatalf("block %d: rebuilt block does not verify: %v", i, err)
		}
	}
}

// TestCompactGolden pins the compact layout: header, item count, per item
// the 8-byte short ID and its storing-node list, the three node lists, the
// hash.
func TestCompactGolden(t *testing.T) {
	b := goldenBlock(t)
	enc := b.EncodeCompact()

	var want []byte
	uv := func(v uint64) { want = binary.AppendUvarint(want, v) }
	list := func(ns []int) {
		uv(uint64(len(ns)))
		for _, n := range ns {
			uv(uint64(n))
		}
	}
	uv(b.Index)
	want = append(want, b.PrevHash[:]...)
	uv(uint64(b.Timestamp))
	want = append(want, b.Miner[:]...)
	want = append(want, b.PoSHash[:]...)
	want = binary.BigEndian.AppendUint64(want, 0x3fe0000000000000) // B = 0.5
	uv(b.MinedAfter)
	uv(3)
	for _, it := range b.Items {
		want = append(want, it.ID[:8]...)
		list(it.StoringNodes)
	}
	list(b.StoringNodes)
	list(b.PrevStoringNodes)
	list(b.RecentAssignees)
	want = append(want, b.Hash[:]...)
	if !bytes.Equal(enc, want) {
		t.Fatalf("compact layout changed:\n got %x\nwant %x", enc, want)
	}

	// Fixed width → varint: 392 → 257 B; full → short IDs: 257 → 185 B.
	// Re-pinned once for short-ID compact references.
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:]); len(enc) != 185 || got != "4c8f78666d9de58ca521eafea5621982e9a7e33ee8068fe1826a97cf912bec76" {
		t.Fatalf("compact encoding changed: %d bytes, sha256 %s", len(enc), got)
	}
	// The point of the form: under half the full block even at three items.
	if full := b.EncodedSize(); len(enc)*2 > full {
		t.Fatalf("compact form is %d bytes of a %d-byte block", len(enc), full)
	}
}

// TestCompactTamperIsBadHash: every way a compact body or the pool it is
// rebuilt from can differ from what the miner sealed ends in ErrBadHash
// when the rebuilt block is verified — never in a block that verifies.
func TestCompactTamperIsBadHash(t *testing.T) {
	sigs := &meta.SigCache{}
	cases := []struct {
		name   string
		tamper func(c *Compact, pool map[meta.ShortID]*meta.Item)
	}{
		{"swapped IDs", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Refs[0].ID, c.Refs[1].ID = c.Refs[1].ID, c.Refs[0].ID
		}},
		{"altered storing nodes", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Refs[1].StoringNodes = []int{1, 9}
		}},
		{"dropped storing nodes", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Refs[2].StoringNodes = nil
		}},
		{"reordered items", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Refs[0], c.Refs[2] = c.Refs[2], c.Refs[0]
		}},
		{"dropped item", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Refs = c.Refs[:2]
		}},
		{"same DataID from another producer in the pool", func(c *Compact, pool map[meta.ShortID]*meta.Item) {
			other := pool[c.Refs[0].ID].Clone()
			other.Sign(testIdentity(99)) // a valid signature, by someone else
			pool[c.Refs[0].ID] = other
		}},
		{"pool item with other signed fields", func(c *Compact, pool map[meta.ShortID]*meta.Item) {
			pool[c.Refs[1].ID].Properties = "edited"
		}},
		{"forged hash", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Head.Hash[0] ^= 1
		}},
		{"altered header", func(c *Compact, _ map[meta.ShortID]*meta.Item) {
			c.Head.MinedAfter++
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := goldenBlock(t)
			c, err := DecodeCompact(b.EncodeCompact())
			if err != nil {
				t.Fatal(err)
			}
			pool, resolve := poolOf(b)
			tc.tamper(c, pool)
			got, _ := c.Rebuild(resolve)
			if got == nil {
				t.Fatal("tampered body did not rebuild at all; the case no longer tests the hash")
			}
			if err := got.VerifySelfCached(sigs); !errors.Is(err, ErrBadHash) {
				t.Fatalf("tampered rebuild verified with %v, want ErrBadHash", err)
			}
		})
	}
}

// TestCompactRebuildPrefixImpostorIsBadHash: a resolver holding another
// item under a referenced short ID — a validly signed one whose full ID
// shares the 8-byte prefix, by accident or forged — rebuilds a block
// without complaint, and the block fails VerifySelf with ErrBadHash.
func TestCompactRebuildPrefixImpostorIsBadHash(t *testing.T) {
	b := goldenBlock(t)
	c, err := DecodeCompact(b.EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	pool, resolve := poolOf(b)
	impostor := &meta.Item{ID: meta.HashData([]byte("impostor")), Type: "Test/Item", Produced: time.Minute, ValidFor: time.Hour}
	copy(impostor.ID[:], b.Items[1].ID[:8])
	impostor.Sign(testIdentity(99))
	if impostor.ID == b.Items[1].ID || impostor.ID.ShortID() != c.Refs[1].ID || impostor.Verify() != nil {
		t.Fatal("impostor is not a valid item under exactly the referenced prefix")
	}
	pool[c.Refs[1].ID] = impostor
	got, missing := c.Rebuild(resolve)
	if got == nil || missing != nil {
		t.Fatalf("Rebuild = %v, missing %v: the impostor resolves, so the block must rebuild", got, missing)
	}
	if got.Items[1].ID != impostor.ID {
		t.Fatal("the rebuilt block does not carry the impostor")
	}
	if err := got.VerifySelf(); !errors.Is(err, ErrBadHash) {
		t.Fatalf("rebuild with an impostor verified with %v, want ErrBadHash", err)
	}
}

// TestCompactRebuildReportsMissing: unknown short IDs come back in block
// order (a duplicate reference twice), nothing is returned to adopt, and
// the pool is only read.
func TestCompactRebuildReportsMissing(t *testing.T) {
	b := goldenBlock(t)
	c, err := DecodeCompact(b.EncodeCompact())
	if err != nil {
		t.Fatal(err)
	}
	pool, resolve := poolOf(b)
	delete(pool, b.Items[0].ID.ShortID())
	delete(pool, b.Items[2].ID.ShortID())
	got, missing := c.Rebuild(resolve)
	if got != nil || len(missing) != 2 || missing[0] != b.Items[0].ID.ShortID() || missing[1] != b.Items[2].ID.ShortID() {
		t.Fatalf("Rebuild = %v, missing %v", got, missing)
	}
	if pool[b.Items[1].ID.ShortID()].StoringNodes != nil {
		t.Fatal("Rebuild wrote the miner's storing nodes into the pool's own item")
	}
}

// TestDecodeCompactBoundsCountBeforeAllocating: an item count the payload
// cannot hold is refused without allocating anything for it.
func TestDecodeCompactBoundsCountBeforeAllocating(t *testing.T) {
	enc := Genesis(1).EncodeCompact()
	countAt := len(enc) - 3 - sha256.Size - 1
	// What follows the count in a genesis body (three empty lists and the
	// hash, 35 bytes) could hold three bare 9-byte references, not four.
	for _, claim := range []uint64{4, 8, 1 << 16, 1 << 40, 1 << 60, ^uint64(0)} {
		bad := binary.AppendUvarint(append([]byte(nil), enc[:countAt]...), claim)
		bad = append(bad, enc[countAt+1:]...)
		if _, err := DecodeCompact(bad); err == nil {
			t.Fatalf("count %d accepted on a body with no items", claim)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = DecodeCompact(bad) }); n > 16 { // more under -race, never the references
			t.Fatalf("count %d: %v allocations before the refusal", claim, n)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeCompact(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := DecodeCompact(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// FuzzCompactBlock: DecodeCompact never panics, the reference slice it
// allocates is bounded by the payload it was given, what it accepts
// rebuilds without panicking, and the encoding is canonical — only a valid
// block's own compact bytes rebuild into it.
func FuzzCompactBlock(f *testing.F) {
	g := goldenBlock(f)
	enc := g.EncodeCompact()
	f.Add(enc)
	f.Add(Genesis(1).EncodeCompact())
	f.Add(enc[:len(enc)-7])
	f.Add(g.Encode()) // a full body in a compact frame
	unknown := append([]byte(nil), enc...)
	unknown[g.headerSize()+1] ^= 1 // the first reference's short ID: no pool item has it
	f.Add(unknown)
	huge := append([]byte(nil), enc[:g.headerSize()]...)
	f.Add(binary.AppendUvarint(huge, 1<<40))
	_, resolve := poolOf(g)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeCompact(data)
		if err != nil {
			return
		}
		if len(c.Refs)*minRefSize > len(data) {
			t.Fatalf("%d references decoded from %d bytes", len(c.Refs), len(data))
		}
		if b, _ := c.Rebuild(resolve); b != nil && b.VerifySelf() == nil && !bytes.Equal(b.EncodeCompact(), data) {
			t.Fatal("a body that rebuilds into a valid block is not that block's compact encoding")
		}
	})
}
