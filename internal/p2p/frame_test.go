package p2p

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// frame builds a raw wire frame: [4-byte length][1-byte type][payload].
func frame(frameType byte, payload []byte) []byte {
	out := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)+1))
	out[4] = frameType
	copy(out[5:], payload)
	return out
}

// maxClaim returns a header claiming exactly MaxFrameSize bytes follow.
func maxClaim() []byte {
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint32(hdr, MaxFrameSize)
	return hdr
}

func TestReadFrameTable(t *testing.T) {
	oversize := make([]byte, 4)
	binary.BigEndian.PutUint32(oversize, MaxFrameSize+1)

	cases := []struct {
		name    string
		input   []byte
		wantErr bool
		wantFT  byte
		wantPay []byte
	}{
		{name: "empty input", input: nil, wantErr: true},
		{name: "torn header", input: []byte{0x00, 0x00}, wantErr: true},
		{name: "zero-length frame", input: []byte{0, 0, 0, 0}, wantErr: true},
		{name: "oversize length", input: oversize, wantErr: true},
		{name: "max oversize length", input: []byte{0xff, 0xff, 0xff, 0xff}, wantErr: true},
		{name: "torn payload", input: []byte{0, 0, 0, 10, FrameData, 'x'}, wantErr: true},
		{name: "truncated huge claim", input: append(maxClaim(), FrameSyncBatch, 'a', 'b'), wantErr: true},
		{name: "header-only huge claim", input: maxClaim(), wantErr: true},
		{name: "exact-cap claim torn", input: append(maxClaim(), FrameData), wantErr: true},
		{name: "type-only frame", input: frame(FrameGetSnapshot, nil), wantFT: FrameGetSnapshot, wantPay: []byte{}},
		{name: "payload frame", input: frame(FrameMeta, []byte("hello")), wantFT: FrameMeta, wantPay: []byte("hello")},
		// readFrame is type-agnostic: unknown types surface to the
		// handler, which ignores what it does not understand.
		{name: "unknown frame type", input: frame(0xEE, []byte{1, 2}), wantFT: 0xEE, wantPay: []byte{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft, payload, err := readFrame(bytes.NewReader(tc.input))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("readFrame(%x) succeeded, want error", tc.input)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ft != tc.wantFT || !bytes.Equal(payload, tc.wantPay) {
				t.Fatalf("got type %#x payload %x, want %#x %x", ft, payload, tc.wantFT, tc.wantPay)
			}
		})
	}
}

func TestWriteFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameData, make([]byte, MaxFrameSize)); err == nil {
		t.Fatal("oversize frame written")
	}
	if buf.Len() != 0 {
		t.Fatal("oversize write left partial bytes")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, FrameData, p); err != nil {
			t.Fatal(err)
		}
		ft, got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameData || !bytes.Equal(got, p) {
			t.Fatalf("round trip mangled payload of %d bytes", len(p))
		}
	}
}

// TestReadFrameDuplicateTypeStream reads consecutive frames of the same
// type from one connection's byte stream: framing must not desynchronize
// and each payload must come back intact.
func TestReadFrameDuplicateTypeStream(t *testing.T) {
	var wire bytes.Buffer
	payloads := [][]byte{[]byte("first"), []byte("first"), []byte("second"), {}}
	for _, p := range payloads {
		wire.Write(frame(FrameData, p))
	}
	for i, want := range payloads {
		ft, got, err := readFrame(&wire)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ft != FrameData || !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got type %#x payload %q, want %q", i, ft, got, want)
		}
	}
	if _, _, err := readFrame(&wire); err == nil {
		t.Fatal("read past final frame succeeded")
	}
}

// TestReadFrameBoundedAllocation verifies a forged huge length prefix with
// no bytes behind it cannot make readFrame commit the claimed memory: the
// chunked reader must fail after at most one allocation step.
func TestReadFrameBoundedAllocation(t *testing.T) {
	lie := append(maxClaim(), FrameData, 'x', 'y', 'z')
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if _, _, err := readFrame(bytes.NewReader(lie)); err == nil {
			t.Fatal("truncated huge claim parsed")
		}
	}
	runtime.ReadMemStats(&after)
	// A naive make([]byte, size) would allocate rounds×64 MiB; the chunked
	// reader stays near rounds×2×frameAllocChunk. 16 MiB of slack absorbs
	// runtime noise while still catching a single full-size allocation.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("readFrame allocated %d bytes across %d truncated huge claims", grew, rounds)
	}
}

// FuzzReadFrame asserts readFrame never panics, never returns a payload
// beyond the frame cap, and never fabricates bytes it did not read, for
// arbitrary wire bytes. Frames that parse must round-trip back to
// identical bytes.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Add(frame(FrameHello, []byte("127.0.0.1:7000")))
	// Malformed hellos serveConn must reject: empty and oversized payloads.
	f.Add(frame(FrameHello, nil))
	f.Add(frame(FrameHello, make([]byte, MaxHelloLen+1)))
	f.Add(frame(0xEE, []byte{1, 2, 3}))
	// Truncated frames: declared length exceeds what follows.
	f.Add(frame(FrameData, []byte("truncated"))[:7])
	f.Add(append(maxClaim(), FrameSyncBatch, 'a'))
	f.Add(maxClaim())
	// Oversized declared lengths, with and without trailing bytes.
	f.Add(func() []byte {
		hdr := make([]byte, 4)
		binary.BigEndian.PutUint32(hdr, MaxFrameSize+1)
		return append(hdr, make([]byte, 64)...)
	}())
	// Duplicate-type frames back to back on one stream.
	f.Add(append(frame(FrameMeta, []byte("dup")), frame(FrameMeta, []byte("dup"))...))
	f.Add(append(frame(FrameGetSnapshot, nil), frame(FrameGetSnapshot, nil)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, payload, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(payload)+1 > MaxFrameSize {
			t.Fatalf("payload of %d bytes exceeds cap", len(payload))
		}
		if len(payload)+5 > len(data) {
			t.Fatalf("payload of %d bytes fabricated from %d input bytes", len(payload), len(data))
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, ft, payload); err != nil {
			t.Fatalf("re-encode of parsed frame failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("re-encoded frame differs from wire bytes")
		}
		if _, err := io.Copy(io.Discard, &buf); err != nil {
			t.Fatal(err)
		}
	})
}
