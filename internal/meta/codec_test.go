package meta

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/wire"
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
	body[len(DataID{})] |= hasStoringNodes // the list's count follows
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

// withFlags returns a copy of full that keeps only the optional fields the
// flag bits in mask name; the rest are zeroed.
func withFlags(full *Item, mask byte) *Item {
	it := full.Clone()
	if mask&hasLocation == 0 {
		it.Location = geo.Point{}
	}
	if mask&hasLocationName == 0 {
		it.LocationName = ""
	}
	if mask&hasValidFor == 0 {
		it.ValidFor = 0
	}
	if mask&hasProperties == 0 {
		it.Properties = ""
	}
	if mask&hasStoringNodes == 0 {
		it.StoringNodes = nil
	}
	if mask&hasKey == 0 {
		it.Producer, it.ProducerPub = identity.Address{}, nil
	}
	if mask&hasSignature == 0 {
		it.Signature = nil
	}
	return it
}

// fullItem is a signed item with every optional field set.
func fullItem(t testing.TB) *Item {
	it, _ := sampleItem(t, rand.New(rand.NewSource(10)))
	it.Properties = "Camera"
	it.StoringNodes = []int{3, 200, 70000}
	return it
}

// TestFlagsNameEveryOptionalField: each of the 128 flag combinations
// round-trips, writes exactly its own bits, and costs the bare form plus
// what its present fields take, nothing for an absent one; a negative zero
// or a NaN coordinate is present, not absent.
func TestFlagsNameEveryOptionalField(t *testing.T) {
	full := fullItem(t)
	bare := withFlags(full, 0).EncodedSize()
	if want := len(DataID{}) + 1 + 1 + len(full.Type) + 6 + 3; bare != want { // 11 minutes in ns, 1 MiB
		t.Fatalf("the item with no optional field is %d bytes, want %d", bare, want)
	}
	cost := map[byte]int{
		hasLocation: 16, hasLocationName: 1 + len(full.LocationName), hasValidFor: 7,
		hasProperties: 1 + len(full.Properties), hasStoringNodes: 1 + 1 + 2 + 3,
		hasKey: ed25519.PublicKeySize, hasSignature: ed25519.SignatureSize,
	}
	for mask := 0; mask <= knownFlags; mask++ {
		it := withFlags(full, byte(mask))
		enc := it.Encode()
		want := bare
		for bit, n := range cost {
			if byte(mask)&bit != 0 {
				want += n
			}
		}
		if enc[len(DataID{})] != byte(mask) || len(enc) != want || it.EncodedSize() != want {
			t.Fatalf("mask %#x: flags %#x, %d bytes, EncodedSize %d, want %d", mask, enc[len(DataID{})], len(enc), it.EncodedSize(), want)
		}
		got, err := Decode(enc)
		if err != nil || !reflect.DeepEqual(got, it) {
			t.Fatalf("mask %#x: round trip %+v, %v", mask, got, err)
		}
	}
	for _, p := range []geo.Point{{X: math.Copysign(0, -1)}, {Y: math.NaN()}, {X: math.Float64frombits(1)}} {
		it := withFlags(full, 0)
		it.Location = p
		enc := it.Encode()
		got, err := Decode(enc)
		if err != nil || enc[len(DataID{})] != hasLocation ||
			math.Float64bits(got.Location.X) != math.Float64bits(p.X) || math.Float64bits(got.Location.Y) != math.Float64bits(p.Y) {
			t.Fatalf("location bits %x/%x: decoded %v, %v", math.Float64bits(p.X), math.Float64bits(p.Y), got, err)
		}
	}
}

// refusedForms are bytes no encoder writes, each with the error Decode
// must refuse it with: an unknown flag bit, each optional field flagged
// but written at its zero value, and an item whose key is 31 bytes.
func refusedForms(t testing.TB) map[string]refusal {
	full := fullItem(t)
	bare := withFlags(full, 0).Encode()
	flags := len(DataID{})
	// The type and the production time, then the data size, follow the
	// flags; a flagged-but-empty field goes where the encoder puts it.
	mid := flags + 1 + 1 + len(full.Type) + len(binary.AppendUvarint(nil, uint64(full.Produced)))
	forge := func(flag byte, beforeSize, afterSize []byte) []byte {
		out := append(append([]byte(nil), bare[:mid]...), beforeSize...)
		out = append(append(out, bare[mid:]...), afterSize...)
		out[flags] = flag
		return out
	}
	// A key one byte short has no wire form: the decoder reads 32 bytes,
	// here the key and the one-byte data size, and the item ends early.
	short := &Item{ID: full.ID, Type: full.Type, ProducerPub: full.ProducerPub[:31], DataSize: 5}
	return map[string]refusal{
		"unknown bit":         {forge(0x80, nil, nil), errFlags},
		"location zero":       {forge(hasLocation, make([]byte, 16), nil), errFlags},
		"location name empty": {forge(hasLocationName, []byte{0}, nil), errFlags},
		"valid for zero":      {forge(hasValidFor, []byte{0}, nil), errFlags},
		"properties empty":    {forge(hasProperties, []byte{0}, nil), errFlags},
		"storing nodes empty": {forge(hasStoringNodes, nil, []byte{0}), errFlags},
		"31-byte key":         {short.Encode(), wire.ErrTruncated},
	}
}

type refusal struct {
	b   []byte
	err error
}

// TestDecodeRefusesNonCanonicalFlags: every refused form fails to decode,
// for its own reason, while the bare form they are forged from is accepted.
func TestDecodeRefusesNonCanonicalFlags(t *testing.T) {
	for name, r := range refusedForms(t) {
		if got, err := Decode(r.b); !errors.Is(err, r.err) {
			t.Fatalf("%s: decoded %+v, error %v, want %v", name, got, err, r.err)
		}
	}
	if _, err := Decode(withFlags(fullItem(t), 0).Encode()); err != nil {
		t.Fatalf("the bare form itself: %v", err)
	}
}

// FuzzItemCodec: Decode never panics, what it accepts re-encodes to the
// same bytes at its EncodedSize, and it never builds an item much larger
// than its input.
func FuzzItemCodec(f *testing.F) {
	it := fullItem(f)
	enc := it.Encode()
	f.Add(enc)
	f.Add((&Item{}).Encode())
	f.Add(enc[:len(enc)-3])
	f.Add(it.AppendCanonical(nil)) // the fixed-width form is not the wire form
	f.Add(binary.AppendUvarint(enc[:len(enc)-4], 1<<60))
	for mask := 0; mask <= knownFlags; mask++ {
		f.Add(withFlags(it, byte(mask)).Encode())
	}
	refused := refusedForms(f)
	names := make([]string, 0, len(refused))
	for name := range refused {
		names = append(names, name)
	}
	sort.Strings(names) // seed numbers stay put from run to run
	for _, name := range names {
		f.Add(refused[name].b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			return
		}
		if !bytes.Equal(got.Encode(), data) || got.EncodedSize() != len(data) {
			t.Fatalf("accepted bytes are not canonical:\n in  %x\n out %x (EncodedSize %d)", data, got.Encode(), got.EncodedSize())
		}
		if n, m := len(got.ProducerPub), len(got.Signature); n != 0 && n != ed25519.PublicKeySize || m != 0 && m != ed25519.SignatureSize {
			t.Fatalf("decoded a %d-byte key and a %d-byte signature", n, m)
		}
		if len(got.StoringNodes) > len(data) {
			t.Fatalf("%d storing nodes decoded from %d bytes", len(got.StoringNodes), len(data))
		}
	})
}
