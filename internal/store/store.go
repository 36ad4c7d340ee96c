// Package store provides the durable persistence layer for a live edge
// node: an append-only segmented block WAL, a content-addressed data-item
// store, persisted state snapshots and crash recovery (torn-tail
// truncation + manifest checkpoints).
//
// The paper's premise is that edge nodes "leave the network and disconnect
// from others frequently" (Section I); the recent-block allocation of
// Section IV-C exists so a briefly-offline node can recover missing blocks
// within a few hops. That story needs the node to survive a process
// restart with its chain intact, which this package provides:
//
//   - wal3-<idx>.log  append-only block WAL segments (length + CRC32
//     framed records, each payload an internal/block wire encoding),
//     sealed every SegmentBlocks appends so history below the prune
//     horizon compacts by whole-file unlink
//   - data/xx/<hash>  content-addressed data items (written to data/tmp,
//     then renamed; Open empties data/tmp)
//   - snapshot6-<h>.bin / spine-<h>.bin  serialized engine state + header
//     spine at the latest finalized snapshot height, letting a restart
//     (or a fresh node, over the wire) skip replaying pruned history
//   - manifest.json   checkpoint (chain head + height + snapshot hashes)
//     making replay verification incremental and snapshot use safe
//   - LOCK            held exclusively from Open to Close, so two processes
//     never share one directory
//
// The 3 in the segment names is the on-disk format: blocks in the varint
// wire form whose items open with a flags byte (DESIGN.md "Wire format").
// The 6 in the snapshot names is engine.SnapshotVersion: version 6 writes
// the item table as its live items alone. Recovery would read a record in
// an older form as a torn tail and cut the chain to nothing, and an older
// snapshot is one the engine refuses, so Open refuses a directory that
// holds any file under an older name (legacyFile) and leaves it untouched.
//
// On Open the segments are scanned in index order, torn tails and
// discontinuous stale segments are cut away, and the surviving blocks are
// handed to the caller as the disk holds them, to replay on top of the
// recovered snapshot (or from genesis when no valid snapshot exists). The
// store judges no block: it checks bytes, CRCs and file hashes, and it
// reports one height, the pin (RecoveredPin). The node's own block path
// decides which recovered blocks rejoin the chain, checking content only
// above the pin.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
)

// Store is the durable node store: segmented block WAL + content-addressed
// data items + state snapshots + checkpoint manifest. It is safe for
// concurrent use.
type Store struct {
	dir  string
	wal  *WAL
	data *DataStore

	mu        sync.Mutex
	lock      *os.File // <dir>/LOCK, held from Open; nil once closed
	recovered []*block.Block
	pin       uint64 // set at Open, read-only after
	manifest  Manifest

	// Recovered snapshot (valid only when snapOK).
	snapBlob   []byte
	snapSpine  []chain.Header
	snapHeight uint64
	snapOK     bool
}

// Options configures a Store.
type Options struct {
	// Sync is the WAL fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SegmentBlocks seals a WAL segment after this many appends (default
	// DefaultSegmentBlocks). Smaller segments compact at a finer grain.
	SegmentBlocks int
	// Metrics, when non-nil, receives the store's instrumentation (see
	// NewMetrics). nil disables collection.
	Metrics *Metrics
}

const (
	manifestFile = "manifest.json"
	dataDir      = "data"
	lockFile     = "LOCK"
)

var errClosed = errors.New("store: closed")

// legacyFile reports whether name is a block log or snapshot in a format
// this version cannot read: the single pre-segmentation wal.log, the
// fixed-width wal-<idx>.log, wal2-<idx>.log, whose items have no flags
// byte, and every snapshot<k>-<h>.bin or unversioned snapshot-<h>.bin but
// the current version's (snapshotFilePrefix), which the engine refuses.
func legacyFile(name string) bool {
	if gen, ok := strings.CutPrefix(name, "snapshot"); ok && strings.HasSuffix(name, snapshotFileSuffix) {
		gen, _, ok = strings.Cut(gen, "-")
		return ok && strings.Trim(gen, "0123456789") == "" && !strings.HasPrefix(name, snapshotFilePrefix)
	}
	return name == "wal.log" ||
		(strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, "wal2-")) && strings.HasSuffix(name, segmentSuffix)
}

// openLockFile opens, creating it if needed, the directory's lock file.
func openLockFile(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open lock: %w", err)
	}
	return f, nil
}

// Open opens (or creates) the store rooted at dir and runs crash
// recovery: WAL segments are scanned, torn or stale tails are cut, and the
// persisted snapshot (if any) is hash-verified. The recovered blocks are
// available via RecoveredBlocks, the snapshot via RecoveredSnapshot and the
// checkpoint that vouches for a prefix of the blocks via RecoveredPin.
//
// The store holds an exclusive lock on <dir>/LOCK until Close, so a second
// Open of a directory in use fails, naming the directory.
func Open(dir string, opts Options) (_ *Store, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	// Opening beside files in an older format would come up empty and
	// silently drop their chain. The refusal comes before the lock so that it
	// leaves the directory untouched.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", dir, err)
	}
	for _, e := range entries {
		if legacyFile(e.Name()) {
			return nil, fmt.Errorf("store: %s is in an older on-disk format this version cannot read; move it away to start from an empty chain", filepath.Join(dir, e.Name()))
		}
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			lock.Close()
		}
	}()
	man, err := LoadManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		// A corrupt manifest costs only the verification shortcut (and any
		// snapshot, which cannot be trusted without its manifest hash).
		man = Manifest{}
	}
	m := opts.Metrics.orInert()
	blob, spine, snapHeight, snapOK := loadSnapshot(dir, man)
	blocks, layout, err := recoverSegments(dir)
	if err != nil {
		return nil, err
	}
	pin := pinHeight(blocks, man)
	m.RecoveredBlocks.Add(len(blocks))
	for _, b := range blocks {
		if b.Index > pin {
			m.RecoveryVerified.Inc()
		}
	}
	w, err := OpenWAL(dir, opts, layout)
	if err != nil {
		return nil, err
	}
	ds, err := NewDataStore(filepath.Join(dir, dataDir), DefaultCacheBytes)
	if err != nil {
		w.Close()
		return nil, err
	}
	ds.setMetrics(m)
	return &Store{
		dir: dir, lock: lock, wal: w, data: ds, recovered: blocks, pin: pin, manifest: man,
		snapBlob: blob, snapSpine: spine, snapHeight: snapHeight, snapOK: snapOK,
	}, nil
}

// pinHeight returns the manifest's checkpoint height when the recovered
// blocks hash-link from the first one up to it and the block there carries
// the manifest's head (the links then tie them all to what this node
// verified), and 0 otherwise. It compares the hashes Decode checked.
func pinHeight(blocks []*block.Block, man Manifest) uint64 {
	if len(blocks) == 0 || man.Height < blocks[0].Index {
		return 0
	}
	for i, b := range blocks {
		if i > 0 && (b.Index != blocks[i-1].Index+1 || b.PrevHash != blocks[i-1].Hash) {
			return 0
		}
		if b.Index == man.Height {
			if b.Hash.String() == man.Head {
				return man.Height
			}
			return 0
		}
	}
	return 0
}

// RecoveredBlocks returns the blocks the WAL held at Open, in index order
// and unjudged (the genesis block is never persisted; on a pruned node the
// first block is at or below the one after the snapshot anchor). The caller
// replays them into its chain, cuts the WAL at the first it refuses, and
// must not modify the slice.
func (s *Store) RecoveredBlocks() []*block.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// RecoveredPin implements Backend (see pinHeight; fixed at Open).
func (s *Store) RecoveredPin() uint64 { return s.pin }

// RecoveredSnapshot returns the hash-verified state snapshot found at
// Open: the serialized engine state blob, the header spine [1, height],
// and the snapshot height. ok is false when no valid snapshot exists (the
// caller replays RecoveredBlocks from genesis instead).
func (s *Store) RecoveredSnapshot() (blob []byte, spine []chain.Header, height uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.snapOK {
		return nil, nil, 0, false
	}
	return s.snapBlob, s.snapSpine, s.snapHeight, true
}

// AppendBlock durably appends one block to the WAL (durability subject to
// the configured fsync policy).
func (s *Store) AppendBlock(b *block.Block) error { return s.wal.Append(b) }

// CompactBlocks unlinks sealed WAL segments that lie wholly below the
// given height (the engine's prune horizon). The persisted snapshot plus
// the remaining segments always reconstruct the node's state.
func (s *Store) CompactBlocks(below uint64) error {
	_, err := s.wal.CompactBelow(below)
	return err
}

// WALSize returns the total on-disk WAL size in bytes.
func (s *Store) WALSize() int64 { return s.wal.Size() }

// WALSegments returns the number of on-disk WAL segment files.
func (s *Store) WALSegments() int { return s.wal.Segments() }

// ResetChain atomically replaces the WAL content with the given block
// sequence (genesis excluded by the caller): a fork adoption cuts the log
// back to the fork point. The caller passes only blocks it has verified, so
// the checkpoint moves to the last of them (nothing when the sequence is
// empty), and the next restart checks content only above the fork point.
// The WAL is rewritten before the manifest: a crash between the two leaves
// the old checkpoint, whose head no longer matches, or still matches a kept
// block. Any persisted snapshot is kept; if the fork invalidated it, the
// next restart's replay refuses the blocks that do not link to it and the
// next checkpoint re-persists a fresh one.
func (s *Store) ResetChain(blocks []*block.Block) error {
	if err := s.wal.Reset(blocks); err != nil {
		return err
	}
	var height uint64
	var head string
	if len(blocks) > 0 {
		last := blocks[len(blocks)-1]
		height, head = last.Index, last.Hash.String()
	}
	return s.saveCheckpoint(height, head)
}

// Checkpoint fsyncs the WAL and records height and head as the highest
// block this node has verified and made durable, so the next restart can
// skip content checks up to it. It must name a block in the WAL: Open pins
// the checkpoint only if the block it recovers at height carries head.
func (s *Store) Checkpoint(height uint64, head block.Hash) error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	return s.saveCheckpoint(height, head.String())
}

func (s *Store) saveCheckpoint(height uint64, head string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock == nil {
		return errClosed
	}
	s.manifest.Height = height
	s.manifest.Head = head
	s.manifest.WALBytes = s.wal.Size()
	return SaveManifest(filepath.Join(s.dir, manifestFile), s.manifest)
}

// PutData stores a data item's content under its content hash.
func (s *Store) PutData(id meta.DataID, content []byte) error {
	return s.data.Put(id, content)
}

// GetData returns a data item's content, from the LRU cache when hot.
func (s *Store) GetData(id meta.DataID) ([]byte, bool) {
	content, ok, err := s.data.Get(id)
	if err != nil {
		return nil, false
	}
	return content, ok
}

// AppendData appends a data item's content to dst.
func (s *Store) AppendData(dst []byte, id meta.DataID) ([]byte, bool) {
	content, ok := s.GetData(id)
	return append(dst, content...), ok
}

// HasData reports whether the item's content is on disk.
func (s *Store) HasData(id meta.DataID) bool { return s.data.Has(id) }

// DeleteData removes a data item's content from cache and disk.
func (s *Store) DeleteData(id meta.DataID) error { return s.data.Delete(id) }

// Close fsyncs and closes the WAL and releases the directory lock. The
// store must not be used afterwards; a second Close does nothing.
func (s *Store) Close() error {
	err := s.wal.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lock != nil {
		if cerr := s.lock.Close(); err == nil {
			err = cerr
		}
		s.lock = nil
	}
	return err
}
