package pow

import (
	"math"
	"math/rand"
	"testing"
)

func TestLeadingZeroBits(t *testing.T) {
	tests := []struct {
		name string
		in   []byte
		want int
	}{
		{"high bit set", []byte{0x80}, 0},
		{"one leading zero", []byte{0x40}, 1},
		{"nibble", []byte{0x0F}, 4},
		{"full zero byte", []byte{0x00, 0xFF}, 8},
		{"two zero bytes", []byte{0x00, 0x00, 0x01}, 23},
		{"all zeros", []byte{0x00, 0x00}, 16},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := LeadingZeroBits(tt.in); got != tt.want {
				t.Errorf("LeadingZeroBits(%x) = %d, want %d", tt.in, got, tt.want)
			}
		})
	}
}

func TestMineAndVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	header := []byte("block header bytes")
	res, err := Mine(header, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if LeadingZeroBits(res.Digest[:]) < 12 {
		t.Fatalf("digest %x does not meet difficulty", res.Digest)
	}
	if !Verify(header, res.Nonce, 12) {
		t.Fatal("Verify rejects the mined nonce")
	}
	if Verify(header, res.Nonce+1, 12) && Verify(header, res.Nonce+2, 12) {
		t.Fatal("neighboring nonces also verify; suspicious")
	}
	if res.Hashes == 0 {
		t.Fatal("zero hash count")
	}
}

func TestMineZeroDifficulty(t *testing.T) {
	res, err := Mine([]byte("h"), 0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hashes != 1 {
		t.Fatalf("zero difficulty took %d hashes, want 1", res.Hashes)
	}
}

func TestMineRejectsBadDifficulty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := Mine([]byte("h"), -1, rng); err == nil {
		t.Fatal("negative difficulty accepted")
	}
	if _, err := Mine([]byte("h"), MaxDifficultyBits+1, rng); err == nil {
		t.Fatal("excessive difficulty accepted")
	}
}

func TestMineHashCountDistribution(t *testing.T) {
	// Mean hash count over many runs should be near 2^bits.
	rng := rand.New(rand.NewSource(4))
	const bits = 10
	const runs = 200
	var total uint64
	for i := 0; i < runs; i++ {
		res, err := Mine([]byte{byte(i), byte(i >> 8)}, bits, rng)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Hashes
	}
	mean := float64(total) / runs
	want := ExpectedHashes(bits)
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean hashes %.0f too far from expected %.0f", mean, want)
	}
	t.Logf("mean hashes %.0f (expected %.0f)", mean, want)
}

func TestExpectedHashes(t *testing.T) {
	if got := ExpectedHashes(16); got != 65536 {
		t.Fatalf("ExpectedHashes(16) = %v, want 65536", got)
	}
	if got := ExpectedHashes(0); got != 1 {
		t.Fatalf("ExpectedHashes(0) = %v, want 1", got)
	}
}

func TestSimulatedHashesDistribution(t *testing.T) {
	// Fig. 6 prices each simulated PoW block by Mine's hash count, so the
	// counts must follow the geometric law with success 2^-bits: mean within
	// ±15 % of 2^bits, and about e^-1 of rounds needing more than 2^bits.
	rng := rand.New(rand.NewSource(5))
	const bits = 10
	const runs = 1000
	want := ExpectedHashes(bits)
	var total float64
	over := 0
	for i := 0; i < runs; i++ {
		res, err := Mine([]byte{byte(i), byte(i >> 8), 0x5a}, bits, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Hashes == 0 {
			t.Fatal("zero hashes")
		}
		total += float64(res.Hashes)
		if float64(res.Hashes) > want {
			over++
		}
	}
	mean := total / runs
	if mean < want*0.85 || mean > want*1.15 {
		t.Fatalf("mean hashes %.0f too far from %.0f", mean, want)
	}
	tail := float64(over) / runs
	wantTail := math.Pow(1-1/want, want)
	if math.Abs(tail-wantTail) > 0.06 {
		t.Fatalf("P(hashes > 2^bits) = %.3f, want ≈ %.3f", tail, wantTail)
	}
	t.Logf("mean hashes %.0f (expected %.0f), tail %.3f (expected %.3f)", mean, want, tail, wantTail)
}

func TestMineDeterministicGivenRNG(t *testing.T) {
	header := []byte("deterministic")
	a, err := Mine(header, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Mine(header, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Nonce != b.Nonce || a.Hashes != b.Hashes {
		t.Fatal("mining not deterministic for identical rng state")
	}
}

func TestExpectedHashesMonotone(t *testing.T) {
	prev := 0.0
	for bits := 0; bits <= 24; bits++ {
		e := ExpectedHashes(bits)
		if e <= prev {
			t.Fatalf("ExpectedHashes not increasing at %d bits", bits)
		}
		prev = e
	}
	if math.IsInf(ExpectedHashes(MaxDifficultyBits), 1) {
		t.Fatal("overflow at max difficulty")
	}
}
