// Package geo models the 2-D geometry of the edge environment: node
// positions inside a rectangular field, mobility ranges, and distances.
//
// The paper places nodes uniformly in a 300 m x 300 m area with a 70 m
// radio range and a 30 m mobility range (Section VI). A node's mobility
// range is the radius within which it wanders in the short term; the
// Range-Distance Cost of Section IV-A2 adds both endpoints' ranges to the
// inter-node distance to account for this movement.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points in meters.
func Dist(a, b Point) float64 {
	return math.Hypot(a.X-b.X, a.Y-b.Y)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Field is a rectangular deployment area.
type Field struct {
	Width, Height float64
}

// DefaultField is the paper's 300 m x 300 m simulation area.
func DefaultField() Field { return Field{Width: 300, Height: 300} }

// Contains reports whether p lies inside the field (inclusive).
func (f Field) Contains(p Point) bool {
	return p.X >= 0 && p.X <= f.Width && p.Y >= 0 && p.Y <= f.Height
}

// Clamp returns p constrained to the field boundary.
func (f Field) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, 0), f.Width),
		Y: math.Min(math.Max(p.Y, 0), f.Height),
	}
}

// RandomPoint returns a uniformly distributed point inside the field.
func (f Field) RandomPoint(rng *rand.Rand) Point {
	return Point{X: rng.Float64() * f.Width, Y: rng.Float64() * f.Height}
}

// Placement describes one node's home position and mobility range.
type Placement struct {
	Home Point
	// Range is the mobility radius in meters: the node wanders within
	// this distance of Home in the short term.
	Range float64
}

// RandomOffset returns a position uniformly distributed inside the node's
// mobility disc, clamped to the field.
func (pl Placement) RandomOffset(f Field, rng *rand.Rand) Point {
	// Uniform over the disc: r = R*sqrt(u), theta uniform.
	r := pl.Range * math.Sqrt(rng.Float64())
	theta := rng.Float64() * 2 * math.Pi
	return f.Clamp(Point{
		X: pl.Home.X + r*math.Cos(theta),
		Y: pl.Home.Y + r*math.Sin(theta),
	})
}

// PlaceNodes places n nodes uniformly at random in the field, each with the
// given mobility range. The slice index is the node ID used by higher
// layers.
func PlaceNodes(f Field, n int, mobilityRange float64, rng *rand.Rand) []Placement {
	if n < 0 {
		panic("geo: negative node count")
	}
	out := make([]Placement, n)
	for i := range out {
		out[i] = Placement{Home: f.RandomPoint(rng), Range: mobilityRange}
	}
	return out
}
