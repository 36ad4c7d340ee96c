package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/identity"
	"repro/internal/telemetry"
)

// spineOf converts a block prefix [1, n] into its header spine.
func spineOf(blocks []*block.Block, n uint64) []chain.Header {
	var hs []chain.Header
	for _, b := range blocks {
		if b.Index >= 1 && b.Index <= n {
			hs = append(hs, chain.HeaderOf(b))
		}
	}
	return hs
}

func TestSegmentRollAndMultiSegmentRecovery(t *testing.T) {
	dir := t.TempDir()
	blocks := testChain(t, 10)

	s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	appendAll(t, s, blocks)
	if got := s.WALSegments(); got != 3 {
		t.Fatalf("10 appends at 4/segment left %d segments, want 3", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, start := range []uint64{1, 5, 9} {
		if _, err := os.Stat(segmentPath(dir, start)); err != nil {
			t.Fatalf("segment starting at %d missing: %v", start, err)
		}
	}

	s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	defer s2.Close()
	got := s2.RecoveredBlocks()
	if len(got) != 10 {
		t.Fatalf("recovered %d blocks across segments, want 10", len(got))
	}
	for i, b := range got {
		if b.Hash != blocks[i+1].Hash {
			t.Fatalf("recovered block %d hash mismatch", i+1)
		}
	}
	// Appends continue into the recovered active segment.
	b11 := block.NewBuilder(blocks[10], identity.Address{}, 11*time.Second, 1, 0).Seal()
	if err := s2.AppendBlock(b11); err != nil {
		t.Fatal(err)
	}
	if got := s2.WALSegments(); got != 3 {
		t.Fatalf("append after recovery rolled early: %d segments", got)
	}
}

func TestCompactBelowKeepsSnapshotAnchoredSuffix(t *testing.T) {
	dir := t.TempDir()
	blocks := testChain(t, 10)
	blob := []byte("opaque engine snapshot at height 8")

	s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	appendAll(t, s, blocks)
	if err := s.SaveSnapshot(8, blob, spineOf(blocks, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(8, blocks[8].Hash); err != nil {
		t.Fatal(err)
	}
	sizeBefore := s.WALSize()
	// Horizon 9: blocks below 9 are covered by the snapshot. Segments 1-4
	// and 5-8 lie wholly below it; the active segment must survive.
	if err := s.CompactBlocks(9); err != nil {
		t.Fatal(err)
	}
	if got := s.WALSegments(); got != 1 {
		t.Fatalf("%d segments after compaction, want 1", got)
	}
	if s.WALSize() >= sizeBefore {
		t.Fatal("compaction reclaimed no disk")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	defer s2.Close()
	gotBlob, gotSpine, h, ok := s2.RecoveredSnapshot()
	if !ok || h != 8 {
		t.Fatalf("snapshot not recovered: ok=%v h=%d", ok, h)
	}
	if !bytes.Equal(gotBlob, blob) {
		t.Fatal("snapshot blob changed across restart")
	}
	if !reflect.DeepEqual(gotSpine, spineOf(blocks, 7)) {
		t.Fatal("spine changed across restart")
	}
	rec := s2.RecoveredBlocks()
	if len(rec) != 2 || rec[0].Index != 9 || rec[1].Index != 10 {
		t.Fatalf("recovered suffix wrong: %d blocks starting at %d", len(rec), rec[0].Index)
	}
}

func TestTornTailAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	blocks := testChain(t, 10)

	s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	appendAll(t, s, blocks)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the active segment (blocks 9-10) mid-record: recovery must keep
	// everything from the sealed segments plus the intact prefix.
	active := segmentPath(dir, 9)
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	if got := s2.RecoveredBlocks(); len(got) != 9 || got[len(got)-1].Index != 9 {
		t.Fatalf("recovered %d blocks after torn tail, want 9", len(got))
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the whole active segment away: the sealed segments still recover.
	if err := os.Remove(active); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
	defer s3.Close()
	if got := s3.RecoveredBlocks(); len(got) != 8 || got[len(got)-1].Index != 8 {
		t.Fatalf("recovered %d blocks after losing the active segment, want 8", len(got))
	}
}

// forkChain builds an alternative chain of n blocks off base whose block
// hashes differ from testChain's (different storage price).
func forkChain(t testing.TB, base *block.Block, n int) []*block.Block {
	t.Helper()
	blocks := []*block.Block{base}
	for i := 1; i <= n; i++ {
		b := block.NewBuilder(blocks[i-1], identity.Address{}, base.Timestamp+time.Duration(i)*time.Second, 1, 0.9).Seal()
		blocks = append(blocks, b)
	}
	return blocks
}

// TestResetChainSurvivesRestart covers the happy path of the crash-safe
// Reset: a fork replacement cuts the log back to the fork point f, the new
// branch extends it, and the new chain is what a restart replays. The
// checkpoint moves to f, so that restart checks signatures only above f.
func TestResetChainSurvivesRestart(t *testing.T) {
	const f = 3
	dir := t.TempDir()
	old := testChain(t, 6)
	fork := forkChain(t, old[f], 4) // fork[0] is old[f]

	s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 3})
	appendAll(t, s, old)
	if err := s.Checkpoint(6, old[6].Hash); err != nil {
		t.Fatal(err)
	}
	if err := s.ResetChain(old[1 : f+1]); err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, fork[1:])
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 3, Metrics: NewMetrics(reg)})
	defer s2.Close()
	want := append(old[1:f+1:f+1], fork[1:]...)
	got := s2.RecoveredBlocks()
	if len(got) != len(want) {
		t.Fatalf("recovered %d blocks after reset, want %d", len(got), len(want))
	}
	for i, b := range got {
		if b.Hash != want[i].Hash {
			t.Fatalf("recovered block %d is not the kept prefix plus the fork", i+1)
		}
	}
	if v := reg.Snapshot().Counter("store.recovery.verified_blocks"); v != uint64(len(fork)-1) {
		t.Fatalf("restart verified %d blocks, want the %d above fork point %d", v, len(fork)-1, f)
	}
}

// TestTornResetCutsStaleTail is the Reset crash-safety regression: a crash
// mid-Reset leaves new-prefix segments alongside stale old-fork segments,
// and recovery must cut at the fork discontinuity instead of splicing old
// history onto the new prefix.
func TestTornResetCutsStaleTail(t *testing.T) {
	dir := t.TempDir()
	old := testChain(t, 6)
	fork := forkChain(t, old[0], 3)

	s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 3})
	appendAll(t, s, old) // segments: 1-3 sealed, 4-6 active
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash window: the fork's first segment has been renamed
	// into place, but the stale old segment 4-6 was never unlinked.
	if err := WriteWAL(segmentPath(dir, 1), fork[1:4]); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 3})
	got := s2.RecoveredBlocks()
	if len(got) != 3 {
		t.Fatalf("recovered %d blocks from torn reset, want 3", len(got))
	}
	for i, b := range got {
		if b.Hash != fork[i+1].Hash {
			t.Fatalf("block %d spliced from the old fork", i+1)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// The stale segment must be gone from disk after the recovery rewrite:
	// a second restart sees only the fork prefix.
	if _, err := os.Stat(segmentPath(dir, 4)); !os.IsNotExist(err) {
		t.Fatalf("stale old-fork segment still on disk: %v", err)
	}
	s3 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 3})
	defer s3.Close()
	if got := s3.RecoveredBlocks(); len(got) != 3 || got[2].Hash != fork[3].Hash {
		t.Fatalf("second restart recovered %d blocks", len(got))
	}
}

func TestSnapshotManifestEdgeCases(t *testing.T) {
	blob := []byte("engine state blob")
	setup := func(t *testing.T) (string, []*block.Block) {
		dir := t.TempDir()
		blocks := testChain(t, 10)
		s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
		appendAll(t, s, blocks)
		if err := s.SaveSnapshot(8, blob, spineOf(blocks, 7)); err != nil {
			t.Fatal(err)
		}
		if err := s.CompactBlocks(9); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, blocks
	}
	// Every corruption case must fall back to "no snapshot"; and because
	// the surviving blocks start mid-chain they are unreachable without it,
	// so recovery falls back to a clean empty chain (genesis replay).
	assertCleanFallback := func(t *testing.T, dir string) {
		s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
		defer s.Close()
		if _, _, _, ok := s.RecoveredSnapshot(); ok {
			t.Fatal("corrupt snapshot accepted")
		}
		if got := s.RecoveredBlocks(); len(got) != 0 {
			t.Fatalf("unreachable mid-chain blocks kept: %d", len(got))
		}
		// The store stays usable: a fresh chain persists from genesis.
		fresh := testChain(t, 2)
		appendAll(t, s, fresh)
	}

	t.Run("missing snapshot blob", func(t *testing.T) {
		dir, _ := setup(t)
		if err := os.Remove(snapshotFilePath(dir, 8)); err != nil {
			t.Fatal(err)
		}
		assertCleanFallback(t, dir)
	})
	t.Run("snapshot hash mismatch", func(t *testing.T) {
		dir, _ := setup(t)
		if err := os.WriteFile(snapshotFilePath(dir, 8), []byte("tampered"), 0o644); err != nil {
			t.Fatal(err)
		}
		assertCleanFallback(t, dir)
	})
	t.Run("spine hash mismatch", func(t *testing.T) {
		dir, _ := setup(t)
		if err := os.WriteFile(spineFilePath(dir, 8), []byte("tampered"), 0o644); err != nil {
			t.Fatal(err)
		}
		assertCleanFallback(t, dir)
	})
	t.Run("gap between snapshot and blocks", func(t *testing.T) {
		// Snapshot anchored below the surviving blocks: the blocks are
		// unreachable and dropped, the snapshot is kept.
		dir := t.TempDir()
		blocks := testChain(t, 10)
		s := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
		appendAll(t, s, blocks)
		if err := s.SaveSnapshot(3, blob, spineOf(blocks, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.CompactBlocks(9); err != nil { // leaves blocks 9-10, gap from 4
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir, Options{Sync: SyncAlways, SegmentBlocks: 4})
		defer s2.Close()
		if _, _, h, ok := s2.RecoveredSnapshot(); !ok || h != 3 {
			t.Fatalf("snapshot lost: ok=%v h=%d", ok, h)
		}
		if got := s2.RecoveredBlocks(); len(got) != 0 {
			t.Fatalf("unreachable blocks above the gap kept: %d", len(got))
		}
	})
	t.Run("newer snapshot replaces older files", func(t *testing.T) {
		dir := t.TempDir()
		blocks := testChain(t, 10)
		s := openStore(t, dir, Options{Sync: SyncAlways})
		appendAll(t, s, blocks)
		if err := s.SaveSnapshot(4, blob, spineOf(blocks, 3)); err != nil {
			t.Fatal(err)
		}
		if err := s.SaveSnapshot(8, blob, spineOf(blocks, 7)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(snapshotFilePath(dir, 4)); !os.IsNotExist(err) {
			t.Fatal("stale snapshot file not removed")
		}
		if _, err := os.Stat(spineFilePath(dir, 4)); !os.IsNotExist(err) {
			t.Fatal("stale spine file not removed")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2 := openStore(t, dir, Options{Sync: SyncAlways})
		defer s2.Close()
		if _, _, h, ok := s2.RecoveredSnapshot(); !ok || h != 8 {
			t.Fatalf("want snapshot at 8, got ok=%v h=%d", ok, h)
		}
	})
}

func TestSpineCodecRoundTrip(t *testing.T) {
	blocks := testChain(t, 6)
	spine := spineOf(blocks, 6)
	raw := EncodeSpine(spine)
	dec, err := DecodeSpine(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, spine) {
		t.Fatal("spine round trip changed headers")
	}
	if _, err := DecodeSpine(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated spine accepted")
	}
	if _, err := DecodeSpine(append([]byte("XXXX"), raw[4:]...)); err == nil {
		t.Fatal("bad magic accepted")
	}
	empty, err := DecodeSpine(EncodeSpine(nil))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty spine round trip: %v", err)
	}
}
