package store

import "repro/internal/telemetry"

// Metrics bundles the persistence layer's instrumentation: WAL latency
// histograms (append and fsync, nanoseconds), crash-recovery stats, and
// data-store traffic including the LRU cache hit ratio. All fields are
// nil-safe, so a zero Metrics disables collection; construct with
// NewMetrics to register under a registry and pass via Options.Metrics.
type Metrics struct {
	// WALAppendNs observes the full latency of each Append (write plus
	// any policy-triggered fsync). WALFsyncNs observes fsyncs alone.
	WALAppendNs, WALFsyncNs *telemetry.Histogram
	// WALAppends / WALSyncs count operations.
	WALAppends, WALSyncs *telemetry.Counter
	// WALSegmentsSealed counts segment rolls; WALSegmentsCompacted counts
	// sealed segment files deleted below the prune horizon.
	WALSegmentsSealed, WALSegmentsCompacted *telemetry.Counter
	// RecoveredBlocks counts blocks replayed from the WAL at Open;
	// RecoveryDropped counts scanned blocks discarded by validation;
	// RecoveryVerified counts the blocks whose item signatures Open checked
	// (those above the hash-pinned checkpoint).
	RecoveredBlocks, RecoveryDropped, RecoveryVerified *telemetry.Counter
	// DataReads / DataWrites count data-store operations that reached
	// the API (reads include cache hits).
	DataReads, DataWrites *telemetry.Counter
	// LRUHits / LRUMisses split reads by cache outcome; the hit ratio is
	// hits/(hits+misses).
	LRUHits, LRUMisses *telemetry.Counter
}

// NewMetrics registers the store metric set under reg (names "store.*").
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		WALAppendNs:          reg.Histogram("store.wal.append_ns"),
		WALFsyncNs:           reg.Histogram("store.wal.fsync_ns"),
		WALAppends:           reg.Counter("store.wal.appends"),
		WALSyncs:             reg.Counter("store.wal.syncs"),
		WALSegmentsSealed:    reg.Counter("store.wal.segments_sealed"),
		WALSegmentsCompacted: reg.Counter("store.wal.segments_compacted"),
		RecoveredBlocks:      reg.Counter("store.recovery.blocks"),
		RecoveryDropped:      reg.Counter("store.recovery.dropped"),
		RecoveryVerified:     reg.Counter("store.recovery.verified_blocks"),
		DataReads:            reg.Counter("store.data.reads"),
		DataWrites:           reg.Counter("store.data.writes"),
		LRUHits:              reg.Counter("store.lru.hits"),
		LRUMisses:            reg.Counter("store.lru.misses"),
	}
}

// orInert returns m, or an inert all-nil Metrics when m is nil, so
// internal code can increment unconditionally.
func (m *Metrics) orInert() *Metrics {
	if m == nil {
		return &Metrics{}
	}
	return m
}
