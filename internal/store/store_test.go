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

// signedChain builds genesis + n linked blocks packing one item each, the
// producers alternating; block bad's item has one signature bit flipped
// and the block is sealed over it, so CRC and hash hold and only the
// signature check can refuse it.
func signedChain(t testing.TB, n, bad int) []*block.Block {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	producers := []*identity.Identity{identity.GenerateSeeded(rng), identity.GenerateSeeded(rng)}
	blocks := []*block.Block{block.Genesis(7)}
	for i := 1; i <= n; i++ {
		it := &meta.Item{ID: meta.HashData([]byte{byte(i)}), Type: "T", DataSize: i}
		it.Sign(producers[i%2])
		if i == bad {
			it.Signature[9] ^= 1
		}
		blocks = append(blocks, block.NewBuilder(blocks[i-1], identity.Address{}, time.Duration(i)*time.Second, 1, 0).AddItem(it).Seal())
	}
	return blocks
}

// TestBadSignatureMidSegmentCutsPrefix: a record in the middle of a segment
// whose CRC and hash hold but whose item signature does not cuts recovery at
// the block before it, as a flipped payload byte does — with or without a
// torn tail behind it. Its producer signed blocks 2 and 4, so by block 6 the
// restart's own signature cache checks it on the key's tables.
func TestBadSignatureMidSegmentCutsPrefix(t *testing.T) {
	chain := signedChain(t, 8, 6)
	if chain[6].VerifySelf() == nil {
		t.Fatal("the forged block verifies")
	}
	for _, torn := range []bool{false, true} {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Sync: SyncAlways})
		appendAll(t, s, chain)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if torn {
			st, err := os.Stat(segmentPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segmentPath(dir, 1), st.Size()-5); err != nil {
				t.Fatal(err)
			}
		}
		s2 := openStore(t, dir, Options{})
		got := s2.RecoveredBlocks()
		if len(got) != 5 || got[4].Hash != chain[5].Hash {
			t.Fatalf("torn=%v: recovered %d blocks, want blocks 1-5", torn, len(got))
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointSkipsContentVerification shows the incremental-replay
// contract: a block whose item signature is invalid (content tampered
// after signing, hash recomputed) is rejected on a cold open, but
// accepted when a checkpoint already covers it — CRC plus hash links stand
// in for the full re-verification below the checkpoint. The checkpoint is
// pinned by hash: one that names another head at that height vouches for
// nothing, and the block is cut as on a cold open.
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

	build := func() string {
		dir := t.TempDir()
		s := openStore(t, dir, Options{Sync: SyncAlways})
		if err := s.AppendBlock(bad); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	cold := openStore(t, build(), Options{})
	defer cold.Close()
	if n := len(cold.RecoveredBlocks()); n != 0 {
		t.Fatalf("cold open kept %d unverifiable blocks, want 0", n)
	}

	// A manifest checkpoint covering height 1 vouches for the block, so
	// the next open keeps it without re-running signature verification.
	dir := build()
	err := SaveManifest(filepath.Join(dir, manifestFile), Manifest{Height: 1, Head: bad.Hash.String()})
	if err != nil {
		t.Fatal(err)
	}
	warm := openStore(t, dir, Options{})
	defer warm.Close()
	got := warm.RecoveredBlocks()
	if len(got) != 1 || got[0].Hash != bad.Hash {
		t.Fatalf("checkpointed open recovered %d blocks, want the vouched block", len(got))
	}

	dir = build()
	other := block.NewBuilder(genesis, identity.Address{}, 2*time.Second, 1, 0).Seal()
	err = SaveManifest(filepath.Join(dir, manifestFile), Manifest{Height: 1, Head: other.Hash.String()})
	if err != nil {
		t.Fatal(err)
	}
	pinned := openStore(t, dir, Options{})
	defer pinned.Close()
	if n := len(pinned.RecoveredBlocks()); n != 0 {
		t.Fatalf("a checkpoint naming another head kept %d unverifiable blocks, want 0", n)
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
