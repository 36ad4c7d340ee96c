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
		if got, ok := s.AppendData(nil, id); !ok || !bytes.Equal(got, c) {
			t.Fatalf("case %d (%d bytes): content did not round-trip", i, len(c))
		}
		// Into a buffer with room, left dirty by an earlier answer: the
		// prefix stays and the zero tail is written, not assumed.
		dirty := bytes.Repeat([]byte{0xAA}, 3+len(c))[:3]
		if got, ok := s.AppendData(dirty, id); !ok || !bytes.Equal(got[:3], []byte{0xAA, 0xAA, 0xAA}) || !bytes.Equal(got[3:], c) {
			t.Fatalf("case %d (%d bytes): content did not round-trip into a dirty buffer", i, len(c))
		}
	}
}

// TestAppendDataOneAlloc pins the data-plane answer to one allocation: a
// 1 MB item appended behind a capped 32-byte ID, as a fetch answer is built,
// costs the frame buffer and nothing else, and a missing item costs nothing.
func TestAppendDataOneAlloc(t *testing.T) {
	content := make([]byte, 1<<20)
	copy(content, "sensor reading header")
	id := meta.HashData(content)
	s := NewMemStore()
	if err := s.PutData(id, content); err != nil {
		t.Fatal(err)
	}
	prefix := id[:]
	var got []byte
	if allocs := testing.AllocsPerRun(20, func() { got, _ = s.AppendData(prefix[:32:32], id) }); allocs != 1 {
		t.Fatalf("AppendData of a 1 MB item: %.1f allocations, want 1", allocs)
	}
	if !bytes.Equal(got[:32], id[:]) || !bytes.Equal(got[32:], content) {
		t.Fatal("the answer is not ID ‖ content")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.AppendData(prefix[:32:32], meta.DataID{1}) }); allocs != 0 {
		t.Fatalf("AppendData of a missing item: %.1f allocations, want 0", allocs)
	}
}
