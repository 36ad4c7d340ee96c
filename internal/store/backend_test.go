package store

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/meta"
)

// TestPutDataZeroTailMatchesByteLoop: PutData finds the same zero tail as a
// loop stepping back one byte at a time — for random heads ending in a
// non-zero byte, tails on both sides of every block boundary up to a few
// blocks, all-zero content and content with no zero at all — and keeps such
// content exactly: head held, tail as a length only from sparseTail on.
func TestPutDataZeroTailMatchesByteLoop(t *testing.T) {
	byteLoop := func(b []byte) int {
		i := len(b)
		for i > 0 && b[i-1] == 0 {
			i--
		}
		return i
	}
	rng := rand.New(rand.NewSource(1))
	var cases [][]byte
	for _, headN := range []int{0, 1, 7, 8, 9, 100, sparseTail - 1, sparseTail, 3*sparseTail + 5} {
		for _, tail := range []int{0, 1, 7, 8, 9, sparseTail - 1, sparseTail, sparseTail + 1, 2*sparseTail - 1, 2 * sparseTail, 2*sparseTail + 1, 3*sparseTail + 13} {
			c := make([]byte, headN+tail)
			rng.Read(c[:headN])
			if headN > 0 {
				c[headN-1] = byte(1 + rng.Intn(255))
			}
			cases = append(cases, c)
		}
	}
	noZero := make([]byte, 3*sparseTail+3)
	for i := range noZero {
		noZero[i] = byte(1 + rng.Intn(255))
	}
	sprinkled := make([]byte, 5*sparseTail) // zeros in the head, none at the end
	sprinkled[len(sprinkled)-1], sprinkled[2*sparseTail] = 1, 1
	cases = append(cases, nil, make([]byte, 1<<20), noZero, sprinkled)

	s := NewMemStore()
	for i, c := range cases {
		want := byteLoop(c)
		id := meta.HashData(append([]byte{byte(i), byte(i >> 8)}, c...))
		if err := s.PutData(id, c); err != nil {
			t.Fatal(err)
		}
		wantHead := len(c)
		if len(c)-want >= sparseTail {
			wantHead = want
		}
		if held := len(s.data[id].head); held != wantHead {
			t.Fatalf("case %d (%d bytes, head %d): MemStore holds %d bytes, want %d", i, len(c), want, held, wantHead)
		}
		if got, ok := s.GetData(id); !ok || !bytes.Equal(got, c) {
			t.Fatalf("case %d (%d bytes): content did not round-trip", i, len(c))
		}
	}
}
