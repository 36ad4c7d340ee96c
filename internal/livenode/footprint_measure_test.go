package livenode

import (
	"os"
	"testing"
	"time"

	"repro/internal/store"
)

// TestMeasureFootprint100k is a measurement harness, not a regression
// test: run with FOOTPRINT=1 to print resident-chain and WAL numbers at
// 100k blocks with pruning on vs off (EXPERIMENTS.md §14 table).
func TestMeasureFootprint100k(t *testing.T) {
	if os.Getenv("FOOTPRINT") == "" {
		t.Skip("set FOOTPRINT=1 to run the 100k-block footprint measurement")
	}
	const height = 100_000
	run := func(name string, depth int) {
		fn := newFakeNet()
		epoch := time.Unix(1700000000, 0)
		dir := t.TempDir()
		st, err := store.Open(dir, store.Options{Sync: store.SyncBatch})
		if err != nil {
			t.Fatal(err)
		}
		n := newSyncTestNode(t, fn, name, 0, epoch, func(cfg *Config) {
			cfg.Store = st
			cfg.PruneDepth = depth
			cfg.SnapshotEvery = 64
		})
		n.mineBlocks(t, height)
		if err := n.StoreErr(); err != nil {
			t.Fatal(err)
		}
		n.mu.Lock()
		bodies := n.eng.Chain().BodyCount()
		bodyBytes := 0
		for _, b := range n.eng.Chain().Blocks() {
			bodyBytes += b.EncodedSize()
		}
		n.mu.Unlock()
		t.Logf("%s (depth %d): bodies=%d resident=%d bytes, wal=%d bytes in %d segments",
			name, depth, bodies, bodyBytes, st.WALSize(), st.WALSegments())
	}
	run("archival", 0)
	run("pruned", 1024)
}
