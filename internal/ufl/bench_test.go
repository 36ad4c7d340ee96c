package ufl

import (
	"math/rand"
	"testing"
)

func benchInstance(b *testing.B, nf, nc int) *Instance {
	b.Helper()
	return randomInstance(rand.New(rand.NewSource(1)), nf, nc, 50)
}

func BenchmarkGreedy50(b *testing.B) {
	in := benchInstance(b, 50, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Greedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExact16(b *testing.B) {
	in := benchInstance(b, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exact(in); err != nil {
			b.Fatal(err)
		}
	}
}
