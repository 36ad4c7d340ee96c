package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/chain"
	"repro/internal/identity"
)

// Persisted state snapshots (DESIGN.md §14). The engine's serialized
// StateSnapshot blob is opaque to the store; alongside it the store keeps
// the header spine [1, snapshotHeight] so a restart can rebuild the full
// spine without replaying (or even holding) the pruned bodies. Both files
// are written temp + rename under height-keyed names and referenced from
// the manifest together with their SHA-256es, so a crash between writes
// leaves the previous snapshot intact and any mismatch is detected and
// discarded at Open (falling back to a plain genesis replay).

const (
	// snapshotFilePrefix names the engine's current snapshot version
	// (engine.SnapshotVersion); every other snapshot<k>- name is legacy.
	snapshotFilePrefix = "snapshot6-"
	spineFilePrefix    = "spine-"
	snapshotFileSuffix = ".bin"

	spineRecordSize = 8 + 3*sha256.Size + identity.AddressSize + 8
)

var spineMagic = [4]byte{'S', 'P', 'N', 'E'}

func snapshotFilePath(dir string, height uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", snapshotFilePrefix, height, snapshotFileSuffix))
}

func spineFilePath(dir string, height uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%020d%s", spineFilePrefix, height, snapshotFileSuffix))
}

// EncodeSpine serializes a header spine deterministically.
func EncodeSpine(hdrs []chain.Header) []byte {
	out := make([]byte, 0, len(spineMagic)+4+len(hdrs)*spineRecordSize)
	out = append(out, spineMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(hdrs)))
	for _, h := range hdrs {
		out = binary.BigEndian.AppendUint64(out, h.Index)
		out = append(out, h.Hash[:]...)
		out = append(out, h.PrevHash[:]...)
		out = append(out, h.Miner[:]...)
		out = binary.BigEndian.AppendUint64(out, uint64(h.Timestamp))
		out = append(out, h.PoSHash[:]...)
	}
	return out
}

// DecodeSpine parses an encoded header spine.
func DecodeSpine(data []byte) ([]chain.Header, error) {
	if len(data) < len(spineMagic)+4 || [4]byte(data[:4]) != spineMagic {
		return nil, errors.New("store: bad spine file header")
	}
	n := binary.BigEndian.Uint32(data[4:8])
	rest := data[8:]
	if uint64(len(rest)) != uint64(n)*spineRecordSize {
		return nil, fmt.Errorf("store: spine file length %d, want %d records", len(rest), n)
	}
	hdrs := make([]chain.Header, n)
	for i := range hdrs {
		rec := rest[i*spineRecordSize:]
		h := &hdrs[i]
		h.Index = binary.BigEndian.Uint64(rec[0:8])
		copy(h.Hash[:], rec[8:])
		copy(h.PrevHash[:], rec[8+sha256.Size:])
		copy(h.Miner[:], rec[8+2*sha256.Size:])
		h.Timestamp = time.Duration(binary.BigEndian.Uint64(rec[8+2*sha256.Size+identity.AddressSize:]))
		copy(h.PoSHash[:], rec[16+2*sha256.Size+identity.AddressSize:])
	}
	return hdrs, nil
}

// writeBlobAtomic writes data to path via temp + fsync + rename.
func writeBlobAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".blob-*")
	if err != nil {
		return fmt.Errorf("store: blob tmp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: blob write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: blob sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: blob close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: blob rename: %w", err)
	}
	return nil
}

// SaveSnapshot durably persists a state snapshot blob plus the header
// spine covering [1, height], then points the manifest at them. Older
// snapshot files are removed afterwards; a crash at any point leaves a
// manifest whose referenced files and hashes still agree.
func (s *Store) SaveSnapshot(height uint64, blob []byte, spine []chain.Header) error {
	if height == 0 {
		return errors.New("store: snapshot height must be positive")
	}
	spineRaw := EncodeSpine(spine)
	if err := writeBlobAtomic(snapshotFilePath(s.dir, height), blob); err != nil {
		return err
	}
	if err := writeBlobAtomic(spineFilePath(s.dir, height), spineRaw); err != nil {
		return err
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	blobSum := sha256.Sum256(blob)
	spineSum := sha256.Sum256(spineRaw)
	s.mu.Lock()
	s.manifest.SnapshotHeight = height
	s.manifest.SnapshotHash = hex.EncodeToString(blobSum[:])
	s.manifest.SpineHash = hex.EncodeToString(spineSum[:])
	err := SaveManifest(filepath.Join(s.dir, manifestFile), s.manifest)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return removeStaleSnapshots(s.dir, height)
}

// removeStaleSnapshots deletes snapshot/spine files for heights other than
// keep. Best-effort: a leftover file is harmless (never referenced).
func removeStaleSnapshots(dir string, keep uint64) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	removed := false
	for _, e := range entries {
		name := e.Name()
		var prefix string
		switch {
		case strings.HasPrefix(name, snapshotFilePrefix):
			prefix = snapshotFilePrefix
		case strings.HasPrefix(name, spineFilePrefix):
			prefix = spineFilePrefix
		default:
			continue
		}
		mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), snapshotFileSuffix)
		h, err := strconv.ParseUint(mid, 10, 64)
		if err != nil || h == keep {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed = true
		}
	}
	if removed {
		return syncDir(dir)
	}
	return nil
}

// loadSnapshot reads and verifies the snapshot + spine pair the manifest
// references. ok is false — with no error — whenever anything is missing
// or fails its hash, which callers treat as "no snapshot" (genesis replay
// fallback).
func loadSnapshot(dir string, man Manifest) (blob []byte, spine []chain.Header, height uint64, ok bool) {
	if man.SnapshotHeight == 0 || man.SnapshotHash == "" {
		return nil, nil, 0, false
	}
	blob, err := os.ReadFile(snapshotFilePath(dir, man.SnapshotHeight))
	if err != nil {
		return nil, nil, 0, false
	}
	sum := sha256.Sum256(blob)
	if hex.EncodeToString(sum[:]) != man.SnapshotHash {
		return nil, nil, 0, false
	}
	spineRaw, err := os.ReadFile(spineFilePath(dir, man.SnapshotHeight))
	if err != nil {
		return nil, nil, 0, false
	}
	spineSum := sha256.Sum256(spineRaw)
	if hex.EncodeToString(spineSum[:]) != man.SpineHash {
		return nil, nil, 0, false
	}
	spine, err = DecodeSpine(spineRaw)
	if err != nil {
		return nil, nil, 0, false
	}
	return blob, spine, man.SnapshotHeight, true
}
