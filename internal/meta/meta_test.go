package meta

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/geo"
	"repro/internal/identity"
)

func sampleItem(t testing.TB, rng *rand.Rand) (*Item, *identity.Identity) {
	t.Helper()
	id := identity.GenerateSeeded(rng)
	content := []byte("PM2.5=17ug/m3 at sensor 42")
	it := &Item{
		ID:           HashData(content),
		Type:         "AirQuality/PM2.5",
		Produced:     11 * time.Minute,
		Location:     geo.Point{X: 40.72, Y: -74.00},
		LocationName: "NewYork,NY",
		ValidFor:     1440 * time.Minute,
		Properties:   "",
		DataSize:     1 << 20,
	}
	it.Sign(id)
	return it, id
}

func TestSignAndVerify(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(1)))
	if err := it.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyUnsigned(t *testing.T) {
	it := &Item{Type: "x"}
	if err := it.Verify(); err != ErrUnsigned {
		t.Fatalf("err = %v, want ErrUnsigned", err)
	}
}

func TestVerifyRejectsFieldTampering(t *testing.T) {
	base, _ := sampleItem(t, rand.New(rand.NewSource(2)))
	mutations := map[string]func(*Item){
		"type":      func(it *Item) { it.Type = "Picture/Traffic" },
		"time":      func(it *Item) { it.Produced++ },
		"location":  func(it *Item) { it.Location.X += 0.01 },
		"locname":   func(it *Item) { it.LocationName = "Nassau,NY" },
		"validfor":  func(it *Item) { it.ValidFor += time.Minute },
		"props":     func(it *Item) { it.Properties = "Camera" },
		"datasize":  func(it *Item) { it.DataSize++ },
		"id":        func(it *Item) { it.ID[0] ^= 1 },
		"signature": func(it *Item) { it.Signature[0] ^= 1 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			it := base.Clone()
			mutate(it)
			if err := it.Verify(); err == nil {
				t.Fatalf("tampered %s verified", name)
			}
		})
	}
}

func TestStoringNodesNotCoveredBySignature(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(3)))
	it.StoringNodes = []int{10, 11, 12, 15}
	if err := it.Verify(); err != nil {
		t.Fatalf("setting storing nodes broke the producer signature: %v", err)
	}
}

func TestVerifyData(t *testing.T) {
	content := []byte("the actual 1MB data item")
	it := &Item{ID: HashData(content)}
	if err := it.VerifyData(content); err != nil {
		t.Fatalf("VerifyData: %v", err)
	}
	if err := it.VerifyData([]byte("tampered")); err == nil {
		t.Fatal("tampered content accepted")
	}
}

func TestExpiry(t *testing.T) {
	it := &Item{Produced: 10 * time.Minute, ValidFor: 20 * time.Minute}
	if it.Expired(25 * time.Minute) {
		t.Fatal("expired before valid time elapsed")
	}
	if !it.Expired(31 * time.Minute) {
		t.Fatal("not expired after valid time")
	}
	forever := &Item{Produced: 10 * time.Minute, ValidFor: 0}
	if forever.Expired(1000 * time.Hour) {
		t.Fatal("zero ValidFor must never expire")
	}
}

func TestValidateAt(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(4)))
	if err := it.ValidateAt(it.Produced + time.Minute); err != nil {
		t.Fatalf("ValidateAt fresh: %v", err)
	}
	if err := it.ValidateAt(it.ExpiresAt() + time.Second); err == nil {
		t.Fatal("expired item validated")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(5)))
	it.StoringNodes = []int{16, 17, 26, 44}
	got, err := Decode(it.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, it) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, it)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("decoded item fails verification: %v", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(6)))
	enc := it.Encode()
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated input decoded")
	}
	if _, err := Decode(append(enc, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input decoded")
	}
}

// Property: Encode/Decode round-trips arbitrary field values.
func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	id := identity.GenerateSeeded(rng)
	prop := func(typ, locName, props string, x, y float64, produced, validFor uint32, size uint16, storing []uint8) bool {
		it := &Item{
			ID:           HashData([]byte(typ + props)),
			Type:         typ,
			Produced:     time.Duration(produced) * time.Second,
			Location:     geo.Point{X: x, Y: y},
			LocationName: locName,
			ValidFor:     time.Duration(validFor) * time.Second,
			Properties:   props,
			DataSize:     int(size),
		}
		it.Sign(id)
		for _, s := range storing {
			it.StoringNodes = append(it.StoringNodes, int(s))
		}
		got, err := Decode(it.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, it)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(8)))
	it.StoringNodes = []int{1, 2}
	cp := it.Clone()
	cp.StoringNodes[0] = 99
	cp.Signature[0] ^= 1
	if it.StoringNodes[0] == 99 {
		t.Fatal("Clone shares storing-node slice")
	}
	if err := it.Verify(); err != nil {
		t.Fatal("Clone shares signature slice")
	}
}

func TestQueryMatches(t *testing.T) {
	it, producer := sampleItem(t, rand.New(rand.NewSource(9)))
	other := identity.GenerateSeeded(rand.New(rand.NewSource(10)))
	tests := []struct {
		name string
		q    Query
		want bool
	}{
		{"empty matches", Query{}, true},
		{"type prefix hit", Query{TypePrefix: "AirQuality"}, true},
		{"type prefix miss", Query{TypePrefix: "Picture"}, false},
		{"near hit", Query{Near: it.Location, WithinMeters: 1}, true},
		{"near miss", Query{Near: geo.Point{X: 1000, Y: 1000}, WithinMeters: 1}, false},
		{"fresh hit", Query{ProducedAfter: 10 * time.Minute}, true},
		{"fresh miss", Query{ProducedAfter: 12 * time.Minute}, false},
		{"producer hit", Query{Producer: producer.Address()}, true},
		{"producer miss", Query{Producer: other.Address()}, false},
		{"all constraints", Query{TypePrefix: "Air", Near: it.Location, WithinMeters: 5, ProducedAfter: time.Minute, Producer: producer.Address()}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.q.Matches(it); got != tt.want {
				t.Errorf("Matches = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEncodedSizeMatchesEncodeLength(t *testing.T) {
	it, _ := sampleItem(t, rand.New(rand.NewSource(11)))
	it.StoringNodes = []int{1, 2, 3}
	if it.EncodedSize() != len(it.Encode()) {
		t.Fatal("EncodedSize disagrees with Encode length")
	}
}

// Property: random garbage must never panic the decoder.
func TestDecodeGarbageProperty(t *testing.T) {
	prop := func(data []byte) bool {
		it, err := Decode(data)
		_ = it
		_ = err
		return true // reaching here means no panic
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShortID: the short ID is the ID's first 8 bytes, and an encoded item
// yields it without a decode because the ID leads the layout.
func TestShortID(t *testing.T) {
	it := &Item{ID: HashData([]byte("short")), Type: "t", DataSize: 5}
	want := ShortID(it.ID[:8])
	if got := it.ID.ShortID(); got != want {
		t.Fatalf("ShortID() = %x, want %x", got, want)
	}
	enc := it.Encode()
	if got, ok := EncodedShortID(enc); !ok || got != want {
		t.Fatalf("EncodedShortID = %x, %v; want %x", got, ok, want)
	}
	if got, ok := EncodedShortID(enc[:8]); !ok || got != want {
		t.Fatalf("EncodedShortID of exactly 8 bytes = %x, %v", got, ok)
	}
	if _, ok := EncodedShortID(enc[:7]); ok {
		t.Fatal("EncodedShortID accepted 7 bytes")
	}
}
