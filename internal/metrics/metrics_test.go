package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGiniKnownValues(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 0},
		{"all equal", []float64{3, 3, 3, 3}, 0},
		{"all zero", []float64{0, 0, 0}, 0},
		{"one has everything (n=2)", []float64{0, 10}, 0.5},
		{"one has everything (n=4)", []float64{0, 0, 0, 12}, 0.75},
		{"uniform ramp", []float64{1, 2, 3}, 2.0 / 9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Gini(tt.in); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Gini(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestGiniMatchesQuadraticDefinition(t *testing.T) {
	// The O(n log n) implementation must match the paper's footnote-3
	// formula G = ΣΣ|t_i − t_j| / (2 n Σ t_j).
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 100
		}
		direct := 0.0
		sum := 0.0
		for _, a := range vals {
			sum += a
			for _, b := range vals {
				direct += math.Abs(a - b)
			}
		}
		want := direct / (2 * float64(n) * sum)
		if got := Gini(vals); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: Gini = %v, quadratic = %v", trial, got, want)
		}
	}
}

// Property: Gini is scale-invariant and within [0, 1).
func TestGiniProperties(t *testing.T) {
	prop := func(raw []uint16, scaleRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = float64(r)
		}
		g := Gini(vals)
		if g < 0 || g >= 1 {
			return false
		}
		scale := float64(scaleRaw) + 1
		scaled := make([]float64, len(vals))
		for i, v := range vals {
			scaled[i] = v * scale
		}
		return math.Abs(Gini(scaled)-g) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Gini must be order-independent (it sorts a copy internally) and must
// not mutate the caller's slice.
func TestGiniUnsortedInput(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	unsorted := []float64{4, 1, 5, 2, 3}
	if got, want := Gini(unsorted), Gini(sorted); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Gini(unsorted) = %v, Gini(sorted) = %v", got, want)
	}
	if unsorted[0] != 4 || unsorted[1] != 1 || unsorted[4] != 3 {
		t.Fatalf("Gini mutated its input: %v", unsorted)
	}

	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 30)
	for i := range vals {
		vals[i] = rng.Float64() * 50
	}
	want := Gini(vals)
	for trial := 0; trial < 20; trial++ {
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		if got := Gini(vals); math.Abs(got-want) > 1e-12 {
			t.Fatalf("permutation %d changed Gini: %v vs %v", trial, got, want)
		}
	}
}

func TestGiniInts(t *testing.T) {
	if got, want := GiniInts([]int{0, 10}), 0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("GiniInts = %v, want %v", got, want)
	}
}
