package block

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/meta"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := Genesis(1)
	miner := testIdentity(1)
	producer := testIdentity(2)
	it := signedItem(t, producer, "payload")
	it.StoringNodes = []int{3, 4}
	b := NewBuilder(g, miner.Address(), time.Minute, 60, 0.5).
		AddItem(it).
		SetStoringNodes([]int{1, 2}).
		SetPrevStoringNodes([]int{0}).
		SetRecentAssignees([]int{5}).
		Seal()

	got, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
	if err := got.VerifySelf(); err != nil {
		t.Fatalf("decoded block fails verification: %v", err)
	}
}

func TestEncodeDecodeGenesis(t *testing.T) {
	g := Genesis(7)
	got, err := Decode(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != g.Hash {
		t.Fatal("genesis did not round trip")
	}
}

func TestDecodeRejectsTamperedBytes(t *testing.T) {
	g := Genesis(1)
	b := NewBuilder(g, testIdentity(1).Address(), time.Minute, 60, 0.5).Seal()
	enc := b.Encode()
	for _, pos := range []int{0, 8, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x01
		if _, err := Decode(bad); err == nil {
			t.Fatalf("flip at %d accepted", pos)
		}
	}
}

func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	b := Genesis(1)
	enc := b.Encode()
	for cut := 0; cut < len(enc); cut += 13 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// Property: random garbage must never panic and (except for astronomically
// unlikely collisions) never decode successfully.
func TestDecodeGarbageProperty(t *testing.T) {
	prop := func(data []byte) bool {
		b, err := Decode(data)
		return b == nil || err == nil // just must not panic; both outcomes fine
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: blocks with random field values round-trip.
func TestEncodeDecodeProperty(t *testing.T) {
	miner := testIdentity(3)
	g := Genesis(2)
	prop := func(ts uint32, after uint16, storing, recent []uint8) bool {
		bld := NewBuilder(g, miner.Address(), time.Duration(ts)*time.Second, uint64(after), 0.125)
		s := make([]int, len(storing))
		for i, v := range storing {
			s[i] = int(v)
		}
		rc := make([]int, len(recent))
		for i, v := range recent {
			rc[i] = int(v)
		}
		b := bld.SetStoringNodes(s).SetRecentAssignees(rc).Seal()
		got, err := Decode(b.Encode())
		if err != nil {
			return false
		}
		return got.Hash == b.Hash && reflect.DeepEqual(got.StoringNodes, b.StoringNodes)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeBoundsCountsAndIndices: an item count or list length the
// payload cannot hold is refused before anything is allocated for it, and
// a node index outside [0, MaxInt32] has no wire form.
func TestDecodeBoundsCountsAndIndices(t *testing.T) {
	g := Genesis(1)
	enc := g.Encode()
	countAt := g.headerSize()
	for _, claim := range []uint64{1, 1 << 16, 1 << 60, math.MaxUint64} {
		bad := binary.AppendUvarint(append([]byte(nil), enc[:countAt]...), claim)
		bad = append(bad, enc[countAt+1:]...)
		if _, err := Decode(bad); err == nil {
			t.Fatalf("item count %d accepted on a body with no items", claim)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = Decode(bad) }); n > 16 { // the header, the error and its wrapping; more under -race, never the items
			t.Fatalf("count %d: %v allocations before the refusal", claim, n)
		}
	}
	for _, idx := range []int{-1, math.MaxInt32 + 1} {
		b := NewBuilder(g, testIdentity(1).Address(), time.Minute, 60, 0.5).SetStoringNodes([]int{idx}).Seal()
		if _, err := Decode(b.Encode()); err == nil {
			t.Fatalf("storing node %d decoded", idx)
		}
		if _, err := DecodeCompact(b.EncodeCompact()); err == nil {
			t.Fatalf("storing node %d decoded from a compact body", idx)
		}
	}
}

// FuzzBlockCodec: Decode never panics, what it accepts re-encodes to the
// same bytes at the size EncodedSize computed, and the items it allocates
// are bounded by the payload it was given.
func FuzzBlockCodec(f *testing.F) {
	g := goldenBlock(f)
	enc := g.Encode()
	f.Add(enc)
	f.Add(Genesis(1).Encode())
	f.Add(enc[:len(enc)-7])
	f.Add(g.EncodeCompact()) // a compact body in a full frame
	f.Add(g.appendHashInput(nil))
	huge := append([]byte(nil), enc[:g.headerSize()]...)
	f.Add(binary.AppendUvarint(huge, 1<<60))
	// Items whose flags name different optional fields, back to back.
	mixed := NewBuilder(Genesis(1), testIdentity(1).Address(), time.Minute, 60, 0.5)
	placed := signedItem(f, testIdentity(2), "placed")
	placed.Location, placed.LocationName, placed.Properties = geo.Point{X: 1.5, Y: -2}, "Cell,7", "Camera"
	placed.Sign(testIdentity(2))
	placed.StoringNodes = []int{4}
	mixed.AddItem(placed).AddItem(&meta.Item{ID: meta.HashData([]byte("bare")), Type: "t", DataSize: 1})
	f.Add(mixed.Seal().Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		if len(b.Items)*meta.MinEncodedSize > len(data) {
			t.Fatalf("%d items decoded from %d bytes", len(b.Items), len(data))
		}
		if out := b.Encode(); !bytes.Equal(out, data) || b.EncodedSize() != len(data) {
			t.Fatalf("accepted bytes are not canonical (EncodedSize %d):\n in  %x\n out %x", b.EncodedSize(), data, out)
		}
	})
}
