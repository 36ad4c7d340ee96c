package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSegmentStart(t *testing.T) {
	cases := []struct {
		name  string
		start uint64
		ok    bool
	}{
		{"wal-00000000000000000001.log", 1, true},
		{"wal-42.log", 42, true},
		{"wal-.log", 0, false},
		{"wal-abc.log", 0, false},
		{"wal-1.log.tmp", 0, false},
		{"manifest.json", 0, false},
		{"wal.log", 0, false},
	}
	for _, tc := range cases {
		start, ok := parseSegmentStart(tc.name)
		if ok != tc.ok || start != tc.start {
			t.Errorf("parseSegmentStart(%q) = (%d, %v), want (%d, %v)", tc.name, start, ok, tc.start, tc.ok)
		}
	}
}

// TestOpenRefusesPreSegmentationLog: a directory that still holds a
// wal.log fails to open with an error naming the file, rather than coming
// up with an empty chain; the file is left as it was.
func TestOpenRefusesPreSegmentationLog(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyWALFile)
	if err := WriteWAL(legacy, testChain(t, 5)[1:]); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err == nil {
		s.Close()
		t.Fatalf("opened a pre-segmentation directory with %d blocks recovered", len(s.RecoveredBlocks()))
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Fatalf("error %q does not name %s", err, legacy)
	}
	if after, err := os.ReadFile(legacy); err != nil || !bytes.Equal(before, after) {
		t.Fatalf("refused open touched %s (read error %v)", legacy, err)
	}
}

// TestOpenRefusesUnreadableLogName: a wal.log that cannot be stat'ed (here
// a symlink to itself) may be a chain too, so Open fails rather than start
// empty beside it.
func TestOpenRefusesUnreadableLogName(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, legacyWALFile)
	if err := os.Symlink(legacyWALFile, legacy); err != nil {
		t.Skipf("symlink: %v", err)
	}
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err == nil {
		s.Close()
		t.Fatal("opened a directory whose wal.log could not be examined")
	}
	if !strings.Contains(err.Error(), legacy) {
		t.Fatalf("error %q does not name %s", err, legacy)
	}
}

// TestRecoverSegmentEdgeCases drives recoverSegments through its cut
// rules: an empty final segment is harmless, an empty mid-log segment or
// a file whose first block disagrees with its name cuts the log there and
// unlinks the orphaned tail.
func TestRecoverSegmentEdgeCases(t *testing.T) {
	blocks := testChain(t, 8)

	t.Run("empty-final-segment", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteWAL(segmentPath(dir, 1), blocks[1:5]); err != nil {
			t.Fatal(err)
		}
		// Crash right after a roll: the fresh segment exists but is empty.
		if err := os.WriteFile(segmentPath(dir, 5), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, Options{Sync: SyncAlways})
		defer s.Close()
		if got := len(s.RecoveredBlocks()); got != 4 {
			t.Fatalf("recovered %d blocks, want 4", got)
		}
	})
	t.Run("empty-mid-segment", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 1), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := WriteWAL(segmentPath(dir, 5), blocks[5:9]); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, Options{Sync: SyncAlways})
		defer s.Close()
		if got := len(s.RecoveredBlocks()); got != 0 {
			t.Fatalf("recovered %d blocks across an empty mid-log segment", got)
		}
		if _, err := os.Stat(segmentPath(dir, 5)); !os.IsNotExist(err) {
			t.Fatal("orphaned tail segment not unlinked")
		}
	})
	t.Run("name-start-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteWAL(segmentPath(dir, 1), blocks[1:5]); err != nil {
			t.Fatal(err)
		}
		// A segment named for block 5 that actually starts at block 6.
		if err := WriteWAL(segmentPath(dir, 5), blocks[6:9]); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, Options{Sync: SyncAlways})
		defer s.Close()
		if got := len(s.RecoveredBlocks()); got != 4 {
			t.Fatalf("recovered %d blocks, want the 4 before the mismatched segment", got)
		}
		if _, err := os.Stat(segmentPath(dir, 5)); !os.IsNotExist(err) {
			t.Fatal("mismatched segment not unlinked")
		}
	})
}
