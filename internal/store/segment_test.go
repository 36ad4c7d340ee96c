package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/wire"
)

func TestParseSegmentStart(t *testing.T) {
	cases := []struct {
		name  string
		start uint64
		ok    bool
	}{
		{"wal3-00000000000000000001.log", 1, true},
		{"wal3-42.log", 42, true},
		{"wal-42.log", 0, false},
		{"wal2-42.log", 0, false},
		{"wal3-.log", 0, false},
		{"wal3-abc.log", 0, false},
		{"wal3-1.log.tmp", 0, false},
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
	legacy := filepath.Join(dir, "wal.log")
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
	legacy := filepath.Join(dir, "wal.log")
	if err := os.Symlink("wal.log", legacy); err != nil {
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

// legacyEncode is the fixed-width block form wal-<idx>.log segments held
// before the varint codec (item-less blocks only): the hash input, then the
// hash.
func legacyEncode(b *block.Block) []byte {
	u64 := binary.BigEndian.AppendUint64
	out := append(u64(nil, b.Index), b.PrevHash[:]...)
	out = append(u64(out, uint64(b.Timestamp)), b.Miner[:]...)
	out = u64(u64(append(out, b.PoSHash[:]...), math.Float64bits(b.B)), b.MinedAfter)
	out = u64(u64(u64(u64(out, 0), 0), 0), 0) // no items, three empty node lists
	return append(out, b.Hash[:]...)
}

// TestOpenRefusesFixedWidthFiles: recovery would read a fixed-width record
// as a torn tail and truncate the segment to nothing, so a directory the
// previous format wrote — segments, or a snapshot — fails to open with an
// error naming the first such file, and nothing in it is touched.
func TestOpenRefusesFixedWidthFiles(t *testing.T) {
	var segment []byte
	for _, b := range testChain(t, 5)[1:] {
		payload := legacyEncode(b)
		if sum := sha256.Sum256(payload[:len(payload)-sha256.Size]); block.Hash(sum) != b.Hash {
			t.Fatal("legacyEncode is not the form the block hash is taken over")
		}
		if _, err := block.Decode(payload); err == nil {
			t.Fatal("the fixed-width form decodes: this test no longer tests a format change")
		}
		segment = binary.BigEndian.AppendUint32(segment, uint32(len(payload)))
		segment = binary.BigEndian.AppendUint32(segment, crc32.ChecksumIEEE(payload))
		segment = append(segment, payload...)
	}
	for _, name := range []string{"wal-00000000000000000001.log", "snapshot-00000000000000000004.bin"} {
		t.Run(name, func(t *testing.T) { checkOpenRefuses(t, name, segment) })
	}
}

// checkOpenRefuses writes content under name into an empty directory and
// requires Open to fail with the older-format error naming the file, and to
// leave the file, alone in the directory, as it was.
func checkOpenRefuses(t *testing.T, name string, content []byte) {
	t.Helper()
	dir := t.TempDir()
	old := filepath.Join(dir, name)
	if err := os.WriteFile(old, content, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Sync: SyncAlways})
	if err == nil {
		s.Close()
		t.Fatalf("opened a directory holding %s with %d blocks recovered", name, len(s.RecoveredBlocks()))
	}
	if !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), "older on-disk format") {
		t.Fatalf("error %q does not name %s as an older format", err, old)
	}
	if after, err := os.ReadFile(old); err != nil || !bytes.Equal(content, after) {
		t.Fatalf("refused open touched %s (read error %v)", old, err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused open left %d entries in the directory, want the old file alone", len(entries))
	}
}

// preFlagsItem is an item's wire form before the flags byte, as wal2- and
// snapshot2- files hold it: every field written, the key and the signature
// behind a length byte.
func preFlagsItem(it *meta.Item) []byte {
	out := append([]byte(nil), it.ID[:]...)
	out = wire.AppendBytes(out, it.Type)
	out = binary.AppendUvarint(out, uint64(it.Produced))
	out = wire.AppendFloat64(wire.AppendFloat64(out, it.Location.X), it.Location.Y)
	out = wire.AppendBytes(out, it.LocationName)
	out = wire.AppendBytes(out, it.ProducerPub)
	out = binary.AppendUvarint(out, uint64(it.ValidFor))
	out = wire.AppendBytes(out, it.Properties)
	out = binary.AppendUvarint(out, uint64(it.DataSize))
	out = wire.AppendBytes(out, it.Signature)
	return wire.AppendInts(out, it.StoringNodes)
}

// TestOpenRefusesPreFlagsFiles: a wal2- segment or snapshot2- file holds
// items without the flags byte, which recovery would read as a torn tail,
// and a snapshot3- file holds an engine snapshot of version 3, whose ledger
// carries token rentals and a stake scale. A directory holding any of them
// fails to open with an error naming it, and nothing in it is touched.
func TestOpenRefusesPreFlagsFiles(t *testing.T) {
	it := &meta.Item{ID: meta.HashData([]byte("pre-flags")), Type: "Test/Item", Produced: time.Minute, ValidFor: time.Hour, DataSize: 1 << 20}
	it.Sign(identity.GenerateSeeded(rand.New(rand.NewSource(3))))
	it.StoringNodes = []int{1, 2}
	b := block.NewBuilder(block.Genesis(7), identity.Address{}, time.Second, 1, 0).AddItem(it).Seal()
	// No location, name or properties (16 + 1 + 1 B), two length bytes,
	// against one flags byte.
	old := preFlagsItem(it)
	if len(old) != it.EncodedSize()+19 {
		t.Fatalf("pre-flags item is %d bytes, the flagged one %d", len(old), it.EncodedSize())
	}
	enc := b.Encode()
	tail := wire.IntsLen(b.StoringNodes) + wire.IntsLen(b.PrevStoringNodes) + wire.IntsLen(b.RecentAssignees) + len(b.Hash)
	head := len(enc) - tail - it.EncodedSize()
	payload := append(append(append([]byte(nil), enc[:head]...), old...), enc[len(enc)-tail:]...)
	if _, err := block.Decode(payload); err == nil {
		t.Fatal("the pre-flags form decodes: this test no longer tests a format change")
	}
	record := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	record = binary.BigEndian.AppendUint32(record, crc32.ChecksumIEEE(payload))
	record = append(record, payload...)
	for _, name := range []string{"wal2-00000000000000000001.log", "snapshot2-00000000000000000001.bin"} {
		t.Run(name, func(t *testing.T) { checkOpenRefuses(t, name, record) })
	}
	// Open refuses by name before it reads a byte, so a version-3 header
	// stands for the whole blob.
	v3 := append([]byte("SNAP\x00\x00\x00\x03"), record...)
	t.Run("snapshot3-00000000000000000001.bin", func(t *testing.T) {
		checkOpenRefuses(t, "snapshot3-00000000000000000001.bin", v3)
	})
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

// TestOpenRefusesVersion4Snapshot: a snapshot4- file holds an engine
// snapshot of version 4, which the engine refuses (its
// TestDecodeSnapshotRefusesVersion4 refuses a full one), so Open refuses
// the directory by the name alone; a version-4 header stands for the blob.
func TestOpenRefusesVersion4Snapshot(t *testing.T) {
	checkOpenRefuses(t, "snapshot4-00000000000000000064.bin", []byte("SNAP\x00\x00\x00\x04"))
}

// TestOpenRefusesVersion5Snapshot: a snapshot5- file holds a version-5
// engine snapshot, whose expired-ID list version 6 dropped (the engine's
// TestDecodeSnapshotRefusesVersion4 refuses a full one); Open refuses the
// directory by the name alone.
func TestOpenRefusesVersion5Snapshot(t *testing.T) {
	checkOpenRefuses(t, "snapshot5-00000000000000000064.bin", []byte("SNAP\x00\x00\x00\x05"))
}

// TestSnapshotFileNameFollowsEngineVersion ties the snapshot file prefix to
// the engine's snapshot codec version, so a format bump cannot rename one
// without the other: the current prefix names engine.SnapshotVersion, and
// every older version's prefix is a legacy name Open refuses.
func TestSnapshotFileNameFollowsEngineVersion(t *testing.T) {
	if want := fmt.Sprintf("snapshot%d-", engine.SnapshotVersion); snapshotFilePrefix != want {
		t.Fatalf("snapshot files are named %q, engine snapshots are version %d: want %q",
			snapshotFilePrefix, engine.SnapshotVersion, want)
	}
	name := func(prefix string) string { return fmt.Sprintf("%s%020d%s", prefix, 64, snapshotFileSuffix) }
	if legacyFile(name(snapshotFilePrefix)) {
		t.Fatalf("the current snapshot name %s is refused as legacy", name(snapshotFilePrefix))
	}
	if !legacyFile(name("snapshot-")) {
		t.Fatal("the unversioned snapshot name is not refused as legacy")
	}
	for v := 2; v < engine.SnapshotVersion; v++ {
		if old := name(fmt.Sprintf("snapshot%d-", v)); !legacyFile(old) {
			t.Fatalf("version-%d snapshot file %s is not refused as legacy", v, old)
		}
	}
}
