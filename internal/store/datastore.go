package store

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/meta"
)

// DataStore is a content-addressed file store for data items. Each item
// lives at data/<hex[:2]>/<hex> where hex is its full content hash, so
// the path is derivable from the DataID alone and a directory never grows
// beyond 1/256 of the item population. Writes go through a temp file in
// data/tmp + rename, so a crash leaves either the whole item or nothing
// but a stray temp file, and NewDataStore empties data/tmp. Reads are
// fronted by a bounded LRU cache: the paper's ~1 MB data items make the
// cache the hot path when serving repeated FrameDataRequest fetches.
type DataStore struct {
	dir     string
	cache   *lruCache
	metrics *Metrics // never nil (orInert)
}

// DefaultCacheBytes is the default LRU budget (64 MiB ≈ 64 paper items).
const DefaultCacheBytes = 64 << 20

// tmpDir is the data store's directory of in-flight writes. Its name is
// no item's subdirectory (those are two hex digits).
const tmpDir = "tmp"

// NewDataStore creates the store rooted at dir with the given LRU budget
// in bytes (0 = DefaultCacheBytes, negative = no cache). It deletes the
// temp files of writes a crash interrupted.
func NewDataStore(dir string, cacheBytes int) (*DataStore, error) {
	tmp := filepath.Join(dir, tmpDir)
	if err := os.RemoveAll(tmp); err != nil {
		return nil, fmt.Errorf("store: data tmp: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("store: data dir: %w", err)
	}
	if cacheBytes == 0 {
		cacheBytes = DefaultCacheBytes
	}
	if cacheBytes < 0 {
		cacheBytes = 0
	}
	return &DataStore{dir: dir, cache: newLRUCache(cacheBytes), metrics: (*Metrics)(nil).orInert()}, nil
}

// setMetrics installs the store's instrumentation (Store.Open wires it).
func (s *DataStore) setMetrics(m *Metrics) {
	s.metrics = m.orInert()
}

func (s *DataStore) path(id meta.DataID) string {
	h := hex.EncodeToString(id[:])
	return filepath.Join(s.dir, h[:2], h)
}

// Put stores content under its content hash. The content must hash to id
// (the caller-visible integrity invariant of Section III-B2); storing
// under a mismatched ID is refused. Re-putting an existing item is a
// no-op.
func (s *DataStore) Put(id meta.DataID, content []byte) error {
	if meta.HashData(content) != id {
		return fmt.Errorf("store: content does not hash to %s", id.Short())
	}
	s.metrics.DataWrites.Inc()
	dst := s.path(id)
	if _, err := os.Stat(dst); err == nil {
		s.cache.put(id, content)
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: data subdir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), ".put-*")
	if err != nil {
		return fmt.Errorf("store: data tmp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return fmt.Errorf("store: data write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: data sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: data close: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: data rename: %w", err)
	}
	s.cache.put(id, content)
	return nil
}

// Get returns the item's content. The LRU cache serves hot items without
// touching the disk; cold reads re-verify the content hash so a corrupted
// file surfaces as a miss rather than as bad data.
func (s *DataStore) Get(id meta.DataID) ([]byte, bool, error) {
	s.metrics.DataReads.Inc()
	if content, ok := s.cache.get(id); ok {
		s.metrics.LRUHits.Inc()
		return content, true, nil
	}
	s.metrics.LRUMisses.Inc()
	content, err := os.ReadFile(s.path(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: data read: %w", err)
	}
	if meta.HashData(content) != id {
		return nil, false, nil // corrupted on disk: treat as missing
	}
	s.cache.put(id, content)
	return content, true, nil
}

// Has reports whether the item exists (cache or disk).
func (s *DataStore) Has(id meta.DataID) bool {
	if _, ok := s.cache.get(id); ok {
		return true
	}
	_, err := os.Stat(s.path(id))
	return err == nil
}

// Delete removes one item from cache and disk.
func (s *DataStore) Delete(id meta.DataID) error {
	s.cache.remove(id)
	err := os.Remove(s.path(id))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: data delete: %w", err)
	}
	return nil
}
