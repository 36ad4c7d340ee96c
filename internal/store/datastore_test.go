package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/meta"
)

func TestDataStorePutGet(t *testing.T) {
	ds, err := NewDataStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("pervasive edge data item")
	id := meta.HashData(content)

	if ds.Has(id) {
		t.Fatal("empty store has item")
	}
	if _, ok, _ := ds.Get(id); ok {
		t.Fatal("empty store served item")
	}
	if err := ds.Put(id, content); err != nil {
		t.Fatal(err)
	}
	if err := ds.Put(id, content); err != nil {
		t.Fatalf("idempotent re-put: %v", err)
	}
	got, ok, err := ds.Get(id)
	if err != nil || !ok || string(got) != string(content) {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	// Wrong hash is refused: content addressing is the integrity invariant.
	if err := ds.Put(meta.HashData([]byte("other")), content); err == nil {
		t.Fatal("mismatched hash accepted")
	}
}

func TestDataStoreColdReadVerifiesHash(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDataStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("to be corrupted on disk")
	id := meta.HashData(content)
	if err := ds.Put(id, content); err != nil {
		t.Fatal(err)
	}
	// Corrupt the file behind the store's back, then read through a fresh
	// store (cold cache).
	if err := os.WriteFile(ds.path(id), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold, err := NewDataStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cold.Get(id); ok || err != nil {
		t.Fatalf("corrupted item served: ok=%v err=%v", ok, err)
	}
}

// DeleteData removes exactly the named items, from cache and disk, and a
// temp file an interrupted write left behind is gone once the store is
// opened again.
func TestDataStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []meta.DataID
	for i := 0; i < 5; i++ {
		content := []byte(fmt.Sprintf("item-%d", i))
		id := meta.HashData(content)
		ids = append(ids, id)
		if err := s.PutData(id, content); err != nil {
			t.Fatal(err)
		}
	}
	gone := map[meta.DataID]bool{ids[1]: true, ids[3]: true}
	for id := range gone {
		if err := s.DeleteData(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DeleteData(ids[1]); err != nil {
		t.Fatalf("deleting an item no longer held: %v", err)
	}
	check := func(s *Store, when string) {
		for i, id := range ids {
			if got := s.HasData(id); got == gone[id] {
				t.Fatalf("%s: item %d held %v", when, i, got)
			}
		}
	}
	check(s, "after delete")
	// A crash mid-write leaves its temp file in the temp directory.
	stray := filepath.Join(dir, dataDir, tmpDir, ".put-123")
	if err := os.WriteFile(stray, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check(s, "after reopen")
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file survived Open (stat error %v)", err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, dataDir, tmpDir)); err != nil || len(entries) != 0 {
		t.Fatalf("temp directory holds %d entries after Open (error %v)", len(entries), err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newLRUCache(10)
	mk := func(s string) (meta.DataID, []byte) { return meta.HashData([]byte(s)), []byte(s) }

	idA, a := mk("aaaa") // 4 bytes
	idB, b := mk("bbbb") // 4 bytes
	idC, cc := mk("cccc")
	c.put(idA, a)
	c.put(idB, b)
	// Touch A so B is the eviction victim.
	if _, ok := c.get(idA); !ok {
		t.Fatal("A missing")
	}
	c.put(idC, cc) // 12 bytes total: evicts LRU (B)
	if _, ok := c.get(idB); ok {
		t.Fatal("LRU entry survived over budget")
	}
	if _, ok := c.get(idA); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, ok := c.get(idC); !ok {
		t.Fatal("new entry missing")
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	// An entry larger than the whole budget is never cached.
	idBig, big := mk("this-is-way-over-ten-bytes")
	c.put(idBig, big)
	if _, ok := c.get(idBig); ok {
		t.Fatal("over-budget entry cached")
	}
}

// Regression: a zero (or negative) budget means "no cache", but the size
// check `len(content) > budget` let zero-length entries through, so they
// accumulated in the map forever (eviction only fires while used > budget).
func TestLRUCacheZeroBudget(t *testing.T) {
	for _, budget := range []int{0, -5} {
		c := newLRUCache(budget)
		for i := 0; i < 100; i++ {
			id := meta.HashData([]byte{byte(i)})
			c.put(id, nil) // zero-length content
			c.put(id, []byte{byte(i)})
		}
		if c.len() != 0 {
			t.Fatalf("budget %d: cached %d entries, want 0", budget, c.len())
		}
	}
}

// Regression: putting different content under an existing id used to keep
// the stale bytes (the branch just did MoveToFront), silently serving wrong
// data forever. Content is content-addressed so this "cannot happen" — which
// is exactly why a caller bug would have been invisible without this check.
func TestLRUCacheReplaceDifferingContent(t *testing.T) {
	c := newLRUCache(10)
	id := meta.HashData([]byte("x"))
	c.put(id, []byte("old"))
	c.put(id, []byte("newer!")) // same id, different (longer) bytes
	got, ok := c.get(id)
	if !ok || string(got) != "newer!" {
		t.Fatalf("get = %q, %v; want the replacement content", got, ok)
	}
	if c.used != len("newer!") {
		t.Fatalf("used = %d after replacement, want %d", c.used, len("newer!"))
	}

	// Replacement that pushes the cache over budget must evict down.
	idB := meta.HashData([]byte("y"))
	c.put(idB, []byte("bb"))       // used = 8
	c.put(id, []byte("123456789")) // 9 bytes: replacement forces eviction of idB
	if _, ok := c.get(idB); ok {
		t.Fatal("over-budget replacement did not evict the LRU entry")
	}
	if c.used > 10 {
		t.Fatalf("used = %d exceeds budget 10", c.used)
	}
}

func TestDataStoreCacheServesAfterDiskLoss(t *testing.T) {
	// The LRU is the hot path: once cached, a read works even if the file
	// vanishes (and Has still answers from the cache).
	ds, err := NewDataStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("hot item")
	id := meta.HashData(content)
	if err := ds.Put(id, content); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ds.path(id)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ds.Get(id); !ok {
		t.Fatal("cache did not serve hot item")
	}
}
