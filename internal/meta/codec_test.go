package meta

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/identity"
)

// TestDecodeBoundsWhatFixedWidthLetThrough: node indices are non-negative
// and at most MaxInt32, a storing-node count cannot exceed the bytes that
// remain, and a padded varint is refused so accepted bytes are canonical.
func TestDecodeBoundsWhatFixedWidthLetThrough(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(8)))
	it.StoringNodes = []int{math.MaxInt32}
	if got, err := Decode(it.Encode()); err != nil || got.StoringNodes[0] != math.MaxInt32 {
		t.Fatalf("MaxInt32 index: %v", err)
	}
	for _, bad := range []int{-1, math.MaxInt32 + 1, math.MinInt64} {
		it.StoringNodes = []int{bad}
		if _, err := Decode(it.Encode()); err == nil {
			t.Fatalf("node index %d decoded", bad)
		}
	}

	it.StoringNodes = nil
	body := it.Encode()
	body = body[:len(body)-1] // the empty list's count
	for _, count := range []uint64{1, 9, 1 << 60, math.MaxUint64} {
		forged := binary.AppendUvarint(append([]byte(nil), body...), count)
		if _, err := Decode(forged); err == nil {
			t.Fatalf("storing-node count %d with no bytes behind it decoded", count)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = Decode(forged) }); n > 12 { // the item's own fields and the error, never the list
			t.Fatalf("count %d: %v allocations before the refusal", count, n)
		}
	}
	if _, err := Decode(append(body, 0x80, 0x00)); err == nil {
		t.Fatal("padded varint 0x80 0x00 accepted as a zero count")
	}
}

// TestUnsignedAndForeignProducer: the codec has no signedness precondition —
// an unsigned item round-trips, with a zero Producer — and a Producer that
// is not the hash of the key does not survive the wire (it could never
// verify).
func TestUnsignedAndForeignProducer(t *testing.T) {
	unsigned := &Item{ID: HashData([]byte("u")), Type: "t", DataSize: 1}
	got, err := Decode(unsigned.Encode())
	if err != nil || !reflect.DeepEqual(got, unsigned) {
		t.Fatalf("unsigned round trip: %+v, %v", got, err)
	}
	it, id := sampleItem(t, rand.New(rand.NewSource(9)))
	it.Producer = identity.Address{1, 2, 3}
	got, err = Decode(it.Encode())
	if err != nil || got.Producer != id.Address() {
		t.Fatalf("decoded Producer %s, want the key's address %s (%v)", got.Producer.Short(), id.Address().Short(), err)
	}
}

// FuzzItemCodec: Decode never panics, what it accepts re-encodes to the
// same bytes, and it never builds an item much larger than its input.
func FuzzItemCodec(f *testing.F) {
	it, _ := sampleItem(f, rand.New(rand.NewSource(10)))
	it.StoringNodes = []int{3, 200, 70000}
	enc := it.Encode()
	f.Add(enc)
	f.Add((&Item{}).Encode())
	f.Add(enc[:len(enc)-3])
	f.Add(it.AppendCanonical(nil)) // the fixed-width form is not the wire form
	f.Add(binary.AppendUvarint(enc[:len(enc)-4], 1<<60))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), data) {
			t.Fatalf("accepted bytes are not canonical:\n in  %x\n out %x", data, got.Encode())
		}
		if len(got.StoringNodes) > len(data) {
			t.Fatalf("%d storing nodes decoded from %d bytes", len(got.StoringNodes), len(data))
		}
	})
}
