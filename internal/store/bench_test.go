package store

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
)

// BenchmarkWALAppend measures the per-block append cost under each fsync
// policy. The block is representative of the paper's (metadata-only body,
// well under 10 KB).
func BenchmarkWALAppend(b *testing.B) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNone} {
		b.Run(policy.String(), func(b *testing.B) {
			genesis := block.Genesis(1)
			w, err := OpenWAL(b.TempDir(), Options{Sync: policy}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			prev := genesis
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk := block.NewBuilder(prev, identity.Address{}, time.Duration(i+1)*time.Second, 1, 0).Seal()
				if err := w.Append(blk); err != nil {
					b.Fatal(err)
				}
				prev = blk
			}
			b.SetBytes(int64(prev.EncodedSize() + recordHeaderSize))
		})
	}
}

// BenchmarkDataStoreGet measures serving a ~1 MB data item (the paper's
// item size) cold from disk vs. hot from the LRU cache — the
// FrameDataRequest serving path.
func BenchmarkDataStoreGet(b *testing.B) {
	content := make([]byte, 1<<20)
	for i := range content {
		content[i] = byte(i)
	}
	id := meta.HashData(content)

	for _, bc := range []struct {
		name       string
		cacheBytes int
	}{
		{"cold", -1}, // cache disabled: every Get hits the disk
		{"hot", 0},   // default cache: every Get after the first is a hit
	} {
		b.Run(bc.name, func(b *testing.B) {
			ds, err := NewDataStore(b.TempDir(), bc.cacheBytes)
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.Put(id, content); err != nil {
				b.Fatal(err)
			}
			ds.cache.remove(id) // start cold either way
			b.SetBytes(int64(len(content)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok, err := ds.Get(id); !ok || err != nil {
					b.Fatalf("get: %v %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkStoreRecovery measures Open-time replay cost per chain length.
func BenchmarkStoreRecovery(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			s, err := Open(dir, Options{Sync: SyncNone})
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range testChain(b, n)[1:] {
				if err := s.AppendBlock(blk); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(s.RecoveredBlocks()) != n {
					b.Fatalf("recovered %d", len(s.RecoveredBlocks()))
				}
				s.Close()
			}
		})
	}
}

// BenchmarkPutDataZeroTail prices MemStore.PutData on the simulated
// workloads' item: a short header padded with zeros to 1 MB, kept as the
// header and a length. Each iteration stores a new ID.
func BenchmarkPutDataZeroTail(b *testing.B) {
	content := make([]byte, 1<<20)
	copy(content, "sensor reading header")
	s := NewMemStore()
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.PutData(meta.DataID{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)}, content); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendData1MB prices a fetch answer from MemStore: the 32-byte ID
// and the simulated workloads' 1 MB item (a short header padded with zeros)
// in one freshly allocated frame buffer.
func BenchmarkAppendData1MB(b *testing.B) {
	content := make([]byte, 1<<20)
	copy(content, "sensor reading header")
	id := meta.HashData(content)
	s := NewMemStore()
	if err := s.PutData(id, content); err != nil {
		b.Fatal(err)
	}
	prefix := id[:]
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.AppendData(prefix[:32:32], id); !ok {
			b.Fatal("item not held")
		}
	}
}
