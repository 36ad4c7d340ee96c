package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest is the periodic checkpoint: the chain head and height as of
// the last Checkpoint call, plus the WAL size at that moment. On the next
// Open, blocks at or below Height skip full content re-verification —
// their integrity is already covered by the WAL record CRC and the
// hash-link walk — making replay cost incremental in the amount of chain
// grown since the last checkpoint.
type Manifest struct {
	// Height is the checkpointed chain height.
	Height uint64 `json:"height"`
	// Head is the hex hash of the block at Height.
	Head string `json:"head"`
	// WALBytes is the WAL size at checkpoint time (informational).
	WALBytes int64 `json:"wal_bytes"`
	// SnapshotHeight is the height of the persisted state snapshot
	// (snapshot<v>-<height>.bin / spine-<height>.bin), 0 when none.
	SnapshotHeight uint64 `json:"snapshot_height,omitempty"`
	// SnapshotHash is the hex SHA-256 of the snapshot blob; restore
	// refuses a blob that does not hash to it.
	SnapshotHash string `json:"snapshot_hash,omitempty"`
	// SpineHash is the hex SHA-256 of the persisted spine file.
	SpineHash string `json:"spine_hash,omitempty"`
}

// LoadManifest reads a manifest; a missing file returns a zero Manifest.
func LoadManifest(path string) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return m, nil
		}
		return m, fmt.Errorf("store: read manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("store: parse manifest: %w", err)
	}
	return m, nil
}

// SaveManifest writes the manifest atomically (temp-file + rename).
func SaveManifest(path string, m Manifest) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return fmt.Errorf("store: manifest tmp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return fmt.Errorf("store: manifest write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: manifest sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: manifest close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: manifest rename: %w", err)
	}
	return nil
}
