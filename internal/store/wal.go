package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/block"
)

// The WAL is a sequence of framed records, one per block:
//
//	[4-byte big-endian payload length][4-byte big-endian CRC32 (IEEE) of
//	payload][payload = block wire encoding (internal/block codec)]
//
// A crash can leave at most one torn record at the tail; recovery
// truncates it. The writer opens the file with O_APPEND and serializes
// appends with a mutex so concurrent miners (block adoption happens on
// multiple goroutines in livenode) cannot interleave records.
//
// Since the finite-lifetime refactor (DESIGN.md §14) the log is segmented:
// records land in `wal3-<firstIndex>.log` files sealed every SegmentBlocks
// appends, so CompactBelow can delete history wholly below the prune
// horizon by unlinking whole files. The framing within each segment is
// unchanged; ScanWAL and WriteWAL operate on one segment file.

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy int

const (
	// SyncBatch (the default) fsyncs after batchAppends appends or
	// batchInterval elapsed time, whichever comes first.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs after every append (maximum durability).
	SyncAlways
	// SyncNone never fsyncs explicitly; the OS flushes at its leisure.
	// A crash may lose recent blocks, but the tail-truncation recovery
	// still yields a consistent prefix.
	SyncNone
)

// String returns the policy's flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "batch"
	}
}

// ParseSyncPolicy parses "always", "batch" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch", "":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return SyncBatch, fmt.Errorf("store: unknown fsync policy %q (want always|batch|none)", s)
}

const (
	recordHeaderSize = 8
	// MaxRecordSize bounds one WAL payload against corrupt length
	// prefixes (matches the p2p frame cap).
	MaxRecordSize = 64 << 20

	// batchAppends and batchInterval bound the unsynced appends under
	// SyncBatch: whichever is reached first fsyncs.
	batchAppends  = 8
	batchInterval = 500 * time.Millisecond
)

// WAL is the append-only segmented block log writer.
type WAL struct {
	dir     string
	metrics *Metrics // never nil (orInert)

	mu          sync.Mutex
	f           *os.File // active segment handle; nil until first append
	active      segmentInfo
	sealed      []segmentInfo
	sealedBytes int64
	segBlocks   int
	// nextIndex is the block index the next Append must carry (0 = any:
	// an empty log accepts whatever height the first block has, which is
	// how a snapshot-bootstrapped node starts persisting mid-chain).
	nextIndex uint64
	policy    SyncPolicy
	pending   int
	lastSync  time.Time
	closed    bool
}

// OpenWAL opens the segmented WAL in dir for appending, attaching to the
// given recovered segment layout (from recoverSegments/writeSegments; nil
// for a fresh directory). The newest segment becomes the active one.
func OpenWAL(dir string, opts Options, layout []segmentInfo) (*WAL, error) {
	w := &WAL{
		dir:       dir,
		metrics:   opts.Metrics.orInert(),
		segBlocks: opts.SegmentBlocks,
		policy:    opts.Sync,
		lastSync:  time.Now(),
	}
	if w.segBlocks <= 0 {
		w.segBlocks = DefaultSegmentBlocks
	}
	if err := w.attachLocked(layout); err != nil {
		return nil, err
	}
	return w, nil
}

// attachLocked points the writer at an on-disk segment layout.
func (w *WAL) attachLocked(layout []segmentInfo) error {
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	w.sealed = nil
	w.sealedBytes = 0
	w.active = segmentInfo{}
	w.nextIndex = 0
	if len(layout) == 0 {
		return nil
	}
	last := layout[len(layout)-1]
	f, err := os.OpenFile(last.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal segment: %w", err)
	}
	w.f = f
	w.active = last
	w.sealed = append([]segmentInfo(nil), layout[:len(layout)-1]...)
	for _, s := range w.sealed {
		w.sealedBytes += s.bytes
	}
	if last.blocks > 0 {
		w.nextIndex = last.lastIndex() + 1
	} else if len(w.sealed) > 0 {
		w.nextIndex = w.sealed[len(w.sealed)-1].lastIndex() + 1
	}
	return nil
}

// rollLocked seals the active segment (if any) and starts a new one whose
// file name is keyed by the first block index it will hold.
func (w *WAL) rollLocked(start uint64) error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: seal wal segment: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("store: seal wal segment: %w", err)
		}
		w.f = nil
		w.sealed = append(w.sealed, w.active)
		w.sealedBytes += w.active.bytes
		w.metrics.WALSegmentsSealed.Inc()
	}
	path := segmentPath(w.dir, start)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create wal segment: %w", err)
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.active = segmentInfo{start: start, path: path}
	return nil
}

// Append frames and writes one block, fsyncing per the policy. Blocks must
// arrive in contiguous index order (Reset realigns after a fork).
func (w *WAL) Append(b *block.Block) error {
	payload := b.Encode()
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("store: wal record of %d bytes exceeds cap", len(payload))
	}
	rec := make([]byte, recordHeaderSize+len(payload))
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(payload))
	copy(rec[recordHeaderSize:], payload)

	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.metrics.WALAppendNs.ObserveSince(start)
	if w.closed {
		return errors.New("store: wal closed")
	}
	if w.nextIndex != 0 && b.Index != w.nextIndex {
		return fmt.Errorf("store: wal append block %d, expected %d (use Reset for forks)", b.Index, w.nextIndex)
	}
	if w.f == nil || w.active.blocks >= w.segBlocks {
		if err := w.rollLocked(b.Index); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	w.active.bytes += int64(len(rec))
	w.active.blocks++
	w.nextIndex = b.Index + 1
	w.pending++
	w.metrics.WALAppends.Inc()
	switch w.policy {
	case SyncAlways:
		return w.syncLocked()
	case SyncBatch:
		if w.pending >= batchAppends || time.Since(w.lastSync) >= batchInterval {
			return w.syncLocked()
		}
	}
	return nil
}

func (w *WAL) syncLocked() error {
	start := time.Now()
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("store: wal sync: %w", err)
		}
	}
	w.metrics.WALSyncs.Inc()
	w.metrics.WALFsyncNs.ObserveSince(start)
	w.pending = 0
	w.lastSync = time.Now()
	return nil
}

// Sync fsyncs every append not yet synced, regardless of policy. With none
// pending (always under SyncAlways) it does nothing: segment rolls and
// Reset sync what they write themselves.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.pending == 0 {
		return nil
	}
	return w.syncLocked()
}

// Size returns the total WAL size in bytes across all segments.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sealedBytes + w.active.bytes
}

// Segments returns the number of on-disk segment files.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.sealed)
	if w.f != nil {
		n++
	}
	return n
}

// CompactBelow unlinks sealed segments whose every block lies strictly
// below the given height. The active segment is never removed. Returns the
// number of segment files deleted.
func (w *WAL) CompactBelow(height uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, errors.New("store: wal closed")
	}
	removed := 0
	kept := w.sealed[:0]
	for _, s := range w.sealed {
		if s.blocks > 0 && s.lastIndex() < height {
			if err := os.Remove(s.path); err != nil && !os.IsNotExist(err) {
				// Keep bookkeeping consistent with disk on failure.
				kept = append(kept, s)
				continue
			}
			w.sealedBytes -= s.bytes
			removed++
			continue
		}
		kept = append(kept, s)
	}
	w.sealed = kept
	if removed > 0 {
		w.metrics.WALSegmentsCompacted.Add(removed)
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Reset atomically replaces the whole log content with the given blocks,
// rewriting the segment set (temp-file + rename per segment, stale
// segments unlinked, directory fsynced). Used when a fork replacement
// rewrites the chain. A crash mid-Reset leaves a mix of old and new
// segment files; recovery's contiguity and hash-link walk cuts the stale
// tail rather than splicing old history onto the new prefix.
func (w *WAL) Reset(blocks []*block.Block) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("store: wal closed")
	}
	layout, err := writeSegments(w.dir, blocks, w.segBlocks)
	if err != nil {
		return err
	}
	if err := w.attachLocked(layout); err != nil {
		return err
	}
	w.pending = 0
	return nil
}

// Close fsyncs (unless SyncNone) and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	var syncErr error
	if w.policy != SyncNone {
		syncErr = w.f.Sync()
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return syncErr
}

// ScanWAL reads one segment file and returns every decodable block plus
// the byte offset up to which the file is well-formed. A torn or corrupt
// record (short header, short payload, CRC mismatch, undecodable block)
// ends the scan; everything before it is returned. A missing file scans as
// empty.
func ScanWAL(path string) (blocks []*block.Block, validSize int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, fmt.Errorf("store: scan wal: %w", err)
	}
	defer f.Close()
	var off int64
	hdr := make([]byte, recordHeaderSize)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			return blocks, off, nil // clean EOF or torn header
		}
		size := binary.BigEndian.Uint32(hdr[0:4])
		wantCRC := binary.BigEndian.Uint32(hdr[4:8])
		if size == 0 || size > MaxRecordSize {
			return blocks, off, nil
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(f, payload); err != nil {
			return blocks, off, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return blocks, off, nil
		}
		b, err := block.Decode(payload)
		if err != nil {
			return blocks, off, nil
		}
		blocks = append(blocks, b)
		off += int64(recordHeaderSize) + int64(size)
	}
}

// WriteWAL writes a fresh segment file containing exactly the given
// blocks, via temp-file + fsync + rename + directory fsync so a crash
// leaves either the old or the new file, never a hybrid.
func WriteWAL(path string, blocks []*block.Block) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".wal-*")
	if err != nil {
		return fmt.Errorf("store: wal tmp: %w", err)
	}
	defer os.Remove(tmp.Name())
	var hdr [recordHeaderSize]byte
	for _, b := range blocks {
		payload := b.Encode()
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(hdr[:]); err != nil {
			tmp.Close()
			return fmt.Errorf("store: wal rewrite: %w", err)
		}
		if _, err := tmp.Write(payload); err != nil {
			tmp.Close()
			return fmt.Errorf("store: wal rewrite: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: wal rewrite sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: wal rewrite close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: wal rewrite rename: %w", err)
	}
	return syncDir(dir)
}
