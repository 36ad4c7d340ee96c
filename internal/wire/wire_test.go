package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	ints := []int{0, 1, 127, 128, 255, 70000, math.MaxInt32}
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.BigEndian.AppendUint32(b, 7)
	b = binary.BigEndian.AppendUint64(b, 1<<40)
	b = AppendFloat64(b, 0.5)
	b = append(b, bytes.Repeat([]byte{0xab}, HashSize)...)
	b = AppendBytes(b, "hello")
	b = AppendBytes(b, []byte(nil))
	b = AppendInts(b, ints)
	b = AppendInts(b, nil)
	b = append(b, 9, 9)

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Uint32(); v != 7 {
		t.Fatalf("Uint32 = %d", v)
	}
	if v := r.Uint64(); v != 1<<40 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := r.Float64(); v != 0.5 {
		t.Fatalf("Float64 = %v", v)
	}
	if h := r.Hash(); h[0] != 0xab || h[HashSize-1] != 0xab {
		t.Fatalf("Hash = %x", h)
	}
	if s := r.Bytes(); string(s) != "hello" {
		t.Fatalf("Bytes = %q", s)
	}
	if s := r.Bytes(); len(s) != 0 {
		t.Fatalf("empty Bytes = %q", s)
	}
	if got := r.Ints(); !reflect.DeepEqual(got, ints) {
		t.Fatalf("Ints = %v", got)
	}
	if got := r.Ints(); got != nil {
		t.Fatalf("empty Ints = %v, want nil", got)
	}
	if r.Len() != 2 || r.Done() == nil {
		t.Fatal("Done accepted two trailing bytes")
	}
	r = NewReader(b)
	r.Take(len(b) - 2)
	if rest := r.Rest(); len(rest) != 2 || r.Done() != nil {
		t.Fatalf("Rest = %x, Done = %v", rest, r.Done())
	}
}

func TestSizesMatchAppends(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1<<63 - 1, math.MaxUint64} {
		if got, want := UvarintLen(v), len(binary.AppendUvarint(nil, v)); got != want {
			t.Fatalf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	for _, ns := range [][]int{nil, {0}, {5, 300, -1}, make([]int, 200)} {
		if got, want := IntsLen(ns), len(AppendInts(nil, ns)); got != want {
			t.Fatalf("IntsLen(%v) = %d, want %d", ns, got, want)
		}
	}
	for _, n := range []int{0, 1, 127, 128, 70000} {
		if got, want := BytesLen(n), len(AppendBytes(nil, make([]byte, n))); got != want {
			t.Fatalf("BytesLen(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestFirstErrorSticks: after a failed read every later read is a zero
// value and the first error is the one reported.
func TestFirstErrorSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.Uint64() != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("short Uint64: %v", r.Err())
	}
	if r.Take(1) != nil || r.Uvarint() != 0 || r.Uint32() != 0 || r.Int() != 0 || r.Count(1) != 0 ||
		r.Ints() != nil || r.Bytes() != nil || r.Hash() != [HashSize]byte{} {
		t.Fatal("a read after the first error returned data")
	}
	if !errors.Is(r.Done(), ErrTruncated) {
		t.Fatalf("Done = %v, want the first error", r.Done())
	}
	if r := NewReader(nil); r.Take(-1) != nil || r.Err() == nil {
		t.Fatal("negative Take accepted")
	}
	rule, later := errors.New("a decoder's rule"), errors.New("a later one")
	r = NewReader([]byte{1})
	if r.Fail(rule); r.Uvarint() != 0 || r.Err() != rule {
		t.Fatalf("after Fail: Err = %v, and a read still returned data", r.Err())
	}
	if r.Fail(later); !errors.Is(r.Done(), rule) {
		t.Fatalf("a second Fail replaced the first error: %v", r.Done())
	}
}

func TestVarintsAreCanonicalAndBounded(t *testing.T) {
	for name, in := range map[string][]byte{
		"empty":       {},
		"unfinished":  {0x80},
		"padded zero": {0x80, 0x00},
		"padded one":  {0x81, 0x80, 0x00},
		"overflow":    bytes.Repeat([]byte{0xff}, 11),
	} {
		if r := NewReader(in); r.Uvarint() != 0 || r.Err() == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if r := NewReader([]byte{0}); r.Uvarint() != 0 || r.Done() != nil {
		t.Fatalf("single zero byte: %v", r.Err())
	}
	if r := NewReader(binary.AppendUvarint(nil, math.MaxInt32+1)); r.Int() != 0 || r.Err() == nil {
		t.Fatal("Int above MaxInt32 accepted")
	}
	if r := NewReader(AppendInts(nil, []int{-1})); r.Ints() != nil || r.Err() == nil {
		t.Fatal("negative index accepted")
	}
}

// TestCountIsCheckedBeforeAllocation: a count the unread bytes cannot hold
// fails in Count, so nothing is ever allocated for it.
func TestCountIsCheckedBeforeAllocation(t *testing.T) {
	forged := append(binary.AppendUvarint(nil, 1<<60), make([]byte, 9)...)
	for _, read := range []func(*Reader){
		func(r *Reader) { r.Count(1) },
		func(r *Reader) { r.Ints() },
		func(r *Reader) { r.Bytes() },
	} {
		r := NewReader(forged)
		if read(r); r.Err() == nil {
			t.Fatal("count 2^60 over 9 bytes accepted")
		}
		if n := testing.AllocsPerRun(10, func() { read(NewReader(forged)) }); n > 8 {
			t.Fatalf("%v allocations before the refusal", n)
		}
	}
	if r := NewReader(append([]byte{3}, make([]byte, 11)...)); r.Count(4) != 0 || r.Err() == nil {
		t.Fatal("3 elements of 4 bytes accepted in 11 bytes")
	}
	if r := NewReader(append([]byte{3}, make([]byte, 12)...)); r.Count(4) != 3 {
		t.Fatalf("3 elements of 4 bytes refused in 12 bytes: %v", r.Err())
	}
}
