package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, 0}, Point{0, 4}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	prop := func(ax, ay, bx, by float64) bool {
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a) && Dist(a, b) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFieldContainsAndClamp(t *testing.T) {
	f := DefaultField()
	if !f.Contains(Point{0, 0}) || !f.Contains(Point{300, 300}) {
		t.Error("field must contain corners")
	}
	if f.Contains(Point{-1, 10}) || f.Contains(Point{10, 301}) {
		t.Error("field must not contain outside points")
	}
	got := f.Clamp(Point{-50, 400})
	if got != (Point{0, 300}) {
		t.Errorf("Clamp = %v, want (0, 300)", got)
	}
}

func TestRandomPointInField(t *testing.T) {
	f := DefaultField()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if p := f.RandomPoint(rng); !f.Contains(p) {
			t.Fatalf("RandomPoint %v outside field", p)
		}
	}
}

func TestPlaceNodes(t *testing.T) {
	f := DefaultField()
	rng := rand.New(rand.NewSource(2))
	pl := PlaceNodes(f, 50, 30, rng)
	if len(pl) != 50 {
		t.Fatalf("got %d placements, want 50", len(pl))
	}
	for i, p := range pl {
		if !f.Contains(p.Home) {
			t.Errorf("node %d home %v outside field", i, p.Home)
		}
		if p.Range != 30 {
			t.Errorf("node %d range = %v, want 30", i, p.Range)
		}
	}
}

func TestRandomOffsetWithinRange(t *testing.T) {
	f := DefaultField()
	rng := rand.New(rand.NewSource(3))
	pl := Placement{Home: Point{150, 150}, Range: 30}
	for i := 0; i < 1000; i++ {
		p := pl.RandomOffset(f, rng)
		if d := Dist(pl.Home, p); d > 30+1e-9 {
			t.Fatalf("offset %v at distance %v > range 30", p, d)
		}
	}
}

func TestRandomOffsetClampedToField(t *testing.T) {
	f := DefaultField()
	rng := rand.New(rand.NewSource(4))
	pl := Placement{Home: Point{0, 0}, Range: 50}
	for i := 0; i < 1000; i++ {
		if p := pl.RandomOffset(f, rng); !f.Contains(p) {
			t.Fatalf("offset %v outside field", p)
		}
	}
}
