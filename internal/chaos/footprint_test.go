package chaos

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/p2p/memnet"
)

// warmedHeap is the live heap an n-node cluster holds once it is built with
// the sim-* benchmarks' options, connected and warmed until every node holds
// block 1: HeapAlloc after runtime.GC, less the same reading taken before the
// build.
func warmedHeap(tb testing.TB, n int) uint64 {
	tb.Helper()
	before := liveHeap()
	c := newQuietCluster(tb, Options{
		N:               n,
		Seed:            *seedFlag,
		T0:              30 * time.Second,
		StorageCapacity: 2000,
		SnapshotEvery:   4,
		Faults:          memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	warmUp(tb, c)
	after := liveHeap()
	runtime.KeepAlive(c)
	if after < before {
		return 0
	}
	return after - before
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestWarmedClusterFootprint bounds what a node holds before it has done any
// work: a warmed 256-node cluster within 32 MB of live heap, 128 KB a node.
// Per-node structures are sized on use (DESIGN.md §18): seen-sets and event
// rings grow as they fill, a histogram's buckets arrive with its first
// observation and the PoS ledger indexes the shared roster without a map.
// This run measures about 17 MB; 86 MB when each node pre-sized its seen-sets
// for 1 536 entries, zeroed 15 KB of buckets per histogram and copied the
// roster into a map. It is not parallel: parallel tests wait until it has
// returned, so the heap it reads is its own.
func TestWarmedClusterFootprint(t *testing.T) {
	const n, budget = 256, 32 << 20
	heap := warmedHeap(t, n)
	t.Logf("warmed %d-node cluster: %.1f MB live heap, %.0f KB a node",
		n, float64(heap)/(1<<20), float64(heap)/n/1024)
	if heap > budget {
		t.Errorf("warmed %d-node cluster holds %d B of live heap, want <= %d", n, heap, budget)
	}
}
