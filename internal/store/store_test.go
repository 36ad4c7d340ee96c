package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/telemetry"
)

// testChain builds genesis + n linked blocks with zero miners (VerifyLink
// skips the PoS chaining check for zero miners, so the store-level replay
// checks are exercised without a stake ledger).
func testChain(t testing.TB, n int) []*block.Block {
	t.Helper()
	blocks := []*block.Block{block.Genesis(7)}
	for i := 1; i <= n; i++ {
		b := block.NewBuilder(blocks[i-1], identity.Address{}, time.Duration(i)*time.Second, 1, 0).Seal()
		blocks = append(blocks, b)
	}
	return blocks
}

func openStore(t testing.TB, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendAll(t testing.TB, s *Store, blocks []*block.Block) {
	t.Helper()
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		if err := s.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	chain := testChain(t, 5)

	s := openStore(t, dir, Options{Sync: SyncAlways})
	if got := s.RecoveredBlocks(); len(got) != 0 {
		t.Fatalf("fresh store recovered %d blocks", len(got))
	}
	appendAll(t, s, chain)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := s2.RecoveredBlocks()
	if len(got) != 5 {
		t.Fatalf("recovered %d blocks, want 5", len(got))
	}
	for i, b := range got {
		if b.Hash != chain[i+1].Hash {
			t.Fatalf("block %d hash mismatch after recovery", i+1)
		}
	}
}

// TestTornTailTruncated is the kill-after-partial-append case: a crash
// mid-record must lose exactly the torn block, and the store must reopen
// cleanly and keep accepting appends.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	chain := testChain(t, 6)
	s := openStore(t, dir, Options{Sync: SyncAlways})
	appendAll(t, s, chain)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := segmentPath(dir, 1)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record mid-payload.
	if err := os.Truncate(walPath, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{Sync: SyncAlways})
	got := s2.RecoveredBlocks()
	if len(got) != 5 {
		t.Fatalf("recovered %d blocks after torn tail, want 5", len(got))
	}
	if got[len(got)-1].Hash != chain[5].Hash {
		t.Fatal("recovered tip is not block 5")
	}
	// The file must now end on a record boundary: re-appending block 6
	// and reopening yields the full chain again.
	if err := s2.AppendBlock(chain[6]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	if got := s3.RecoveredBlocks(); len(got) != 6 || got[5].Hash != chain[6].Hash {
		t.Fatalf("after repair+append recovered %d blocks", len(got))
	}
}

func TestCorruptMiddleRecordKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	chain := testChain(t, 4)
	s := openStore(t, dir, Options{Sync: SyncAlways})
	appendAll(t, s, chain)
	recSize := int64(recordHeaderSize + len(chain[1].Encode()))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload byte inside the second record.
	walPath := segmentPath(dir, 1)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[recSize+recordHeaderSize+10] ^= 0xFF
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := s2.RecoveredBlocks()
	if len(got) != 1 || got[0].Hash != chain[1].Hash {
		t.Fatalf("recovered %d blocks past CRC corruption, want 1", len(got))
	}
}

// TestCheckpointSkipsContentVerification shows the incremental-replay
// contract from the store's side: the store hands back every block the disk
// holds, a block whose item signature is invalid (content tampered after
// signing, hash recomputed) included, and reports the pin up to which a
// checkpoint vouches for them. The node's replay checks content above the
// pin only. The pin needs the block at the checkpoint height to carry the
// manifest's head, and the blocks below it to hash-link: a checkpoint that
// names another head, or sits above a broken link, vouches for nothing.
func TestCheckpointSkipsContentVerification(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	producer := identity.GenerateSeeded(rng)
	it := &meta.Item{ID: meta.HashData([]byte("x")), Type: "T", DataSize: 1}
	it.Sign(producer)
	it.Properties = "tampered-after-signing"

	genesis := block.Genesis(7)
	bad := block.NewBuilder(genesis, identity.Address{}, time.Second, 1, 0).AddItem(it).Seal()
	if err := bad.VerifySelf(); err == nil {
		t.Fatal("tampered item unexpectedly verifies")
	}
	next := block.NewBuilder(bad, identity.Address{}, 2*time.Second, 1, 0).Seal()
	other := block.NewBuilder(genesis, identity.Address{}, 2*time.Second, 1, 0).Seal()
	stray := block.NewBuilder(other, identity.Address{}, 3*time.Second, 1, 0).Seal() // links to other, not to bad

	for _, tc := range []struct {
		name   string
		blocks []*block.Block
		man    Manifest
		pin    uint64
	}{
		{"cold", []*block.Block{bad, next}, Manifest{}, 0},
		{"checkpoint at the block", []*block.Block{bad, next}, Manifest{Height: 1, Head: bad.Hash.String()}, 1},
		{"checkpoint above it", []*block.Block{bad, next}, Manifest{Height: 2, Head: next.Hash.String()}, 2},
		{"checkpoint naming another head", []*block.Block{bad, next}, Manifest{Height: 1, Head: other.Hash.String()}, 0},
		{"checkpoint above the recovered blocks", []*block.Block{bad, next}, Manifest{Height: 3, Head: next.Hash.String()}, 0},
		{"checkpoint above a broken link", []*block.Block{bad, stray}, Manifest{Height: 2, Head: stray.Hash.String()}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, Options{Sync: SyncAlways})
			appendAll(t, s, tc.blocks)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if err := SaveManifest(filepath.Join(dir, manifestFile), tc.man); err != nil {
				t.Fatal(err)
			}
			s = openStore(t, dir, Options{})
			defer s.Close()
			got := s.RecoveredBlocks()
			if len(got) != len(tc.blocks) || got[0].Hash != bad.Hash || got[1].Hash != tc.blocks[1].Hash {
				t.Fatalf("recovered %d blocks, want the %d on disk", len(got), len(tc.blocks))
			}
			if pin := s.RecoveredPin(); pin != tc.pin {
				t.Fatalf("pin %d, want %d", pin, tc.pin)
			}
		})
	}
}

// TestCheckpointAddsNoWALSync: a checkpoint fsyncs only appends that are not
// yet durable, so under SyncAlways it adds no WAL sync at all, and under
// SyncNone a second checkpoint with nothing appended adds none either.
func TestCheckpointAddsNoWALSync(t *testing.T) {
	chain := testChain(t, 5)
	for _, tc := range []struct {
		policy SyncPolicy
		syncs  uint64
	}{{SyncAlways, 5}, {SyncNone, 1}} {
		reg := telemetry.NewRegistry()
		s := openStore(t, t.TempDir(), Options{Sync: tc.policy, Metrics: NewMetrics(reg)})
		appendAll(t, s, chain)
		for range 2 {
			if err := s.Checkpoint(5, chain[5].Hash); err != nil {
				t.Fatal(err)
			}
		}
		if got := reg.Snapshot().Counter("store.wal.syncs"); got != tc.syncs {
			t.Errorf("fsync=%v: %d WAL syncs after 5 appends and 2 checkpoints, want %d", tc.policy, got, tc.syncs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenLocksDirectory: a directory in use by one store cannot be opened
// by a second, and the error names it; Close releases the lock, and so does
// an Open that fails after taking it.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{Sync: SyncAlways})
	appendAll(t, s, testChain(t, 2))
	if second, err := Open(dir, Options{}); err == nil {
		second.Close()
		t.Fatal("a second store opened a directory in use")
	} else if !strings.Contains(err.Error(), dir) {
		t.Fatalf("error %q does not name %s", err, dir)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A file where the data directory belongs fails Open after the lock.
	data := filepath.Join(dir, dataDir)
	if err := os.RemoveAll(data); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(data, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatal("opened a store whose data directory is a file")
	}
	if err := os.Remove(data); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	if got := len(s2.RecoveredBlocks()); got != 2 {
		t.Fatalf("reopened after a failed open with %d blocks, want 2", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(2, block.Hash{}); err == nil {
		t.Fatal("a closed store wrote a checkpoint")
	}
	s3 := openStore(t, dir, Options{})
	defer s3.Close()
}

func TestResetChain(t *testing.T) {
	dir := t.TempDir()
	chain := testChain(t, 5)
	s := openStore(t, dir, Options{Sync: SyncAlways})
	appendAll(t, s, chain)

	// Fork replacement: a different, shorter persisted chain.
	alt := testChain(t, 3)
	if err := s.ResetChain(alt[1:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	got := s2.RecoveredBlocks()
	if len(got) != 3 {
		t.Fatalf("recovered %d blocks after reset, want 3", len(got))
	}
	for i, b := range got {
		if b.Hash != alt[i+1].Hash {
			t.Fatalf("block %d differs from reset chain", i+1)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "manifest.json")
	if m, err := LoadManifest(path); err != nil || m != (Manifest{}) {
		t.Fatalf("missing manifest: %+v, %v", m, err)
	}
	want := Manifest{Height: 9, Head: "abcd", WALBytes: 123}
	if err := SaveManifest(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil || got != want {
		t.Fatalf("got %+v, %v", got, err)
	}
	// Corrupt manifest must error, not panic.
	if err := os.WriteFile(path, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Fatal("corrupt manifest loaded")
	}
}
