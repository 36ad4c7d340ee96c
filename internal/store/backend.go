package store

import (
	"bytes"
	"sync"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
)

// Backend abstracts a node's durable persistence: the block log that
// survives restarts and the content-addressed data-item bytes. The live
// stack (internal/livenode, cmd/edgenode) plugs in the disk-backed Store;
// virtual-time clusters and tests use MemStore, which keeps nothing across
// a restart. A Backend reports what it holds and judges no block: the
// node's own block path decides which recovered blocks rejoin the chain.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// RecoveredBlocks returns the blocks the log held at open time in index
	// order (never including genesis), unjudged: the caller replays them into
	// its chain replica and cuts the log (ResetChain) at the first one its
	// block path refuses. In-memory stores return nil.
	RecoveredBlocks() []*block.Block
	// RecoveredPin returns the checkpoint height up to which the recovered
	// blocks hash-link to the head this node verified before writing it (0 =
	// none); the caller may skip content checks at or below it.
	RecoveredPin() uint64
	// AppendBlock durably appends one adopted block.
	AppendBlock(b *block.Block) error
	// ResetChain replaces the whole persisted chain (a fork adoption cuts
	// it back to the fork point); genesis is excluded.
	ResetChain(blocks []*block.Block) error
	// Checkpoint records the chain head + height so the next open can
	// replay incrementally.
	Checkpoint(height uint64, head block.Hash) error
	// SaveSnapshot durably persists a serialized engine state snapshot at
	// the given height together with the header spine covering [1, height]
	// (DESIGN.md §14), superseding any earlier snapshot.
	SaveSnapshot(height uint64, blob []byte, spine []chain.Header) error
	// RecoveredSnapshot returns the hash-verified snapshot found at open
	// time, if any; ok=false means replay from genesis.
	RecoveredSnapshot() (blob []byte, spine []chain.Header, height uint64, ok bool)
	// CompactBlocks discards persisted blocks wholly below the prune
	// horizon (whole WAL segments only; a partial segment is kept).
	CompactBlocks(below uint64) error

	// PutData stores a data item's content under its content hash.
	PutData(id meta.DataID, content []byte) error
	// AppendData appends a data item's content to dst and returns the
	// extended slice; ok is false, and dst unchanged, when it is not held.
	AppendData(dst []byte, id meta.DataID) (out []byte, ok bool)
	// HasData reports whether the item's content is held.
	HasData(id meta.DataID) bool
	// DeleteData removes a data item's content; an item not held is no
	// error.
	DeleteData(id meta.DataID) error

	// Close releases the store.
	Close() error
}

var (
	_ Backend = (*Store)(nil)
	_ Backend = (*MemStore)(nil)
)

// MemStore is the in-memory Backend used by virtual-time clusters and
// tests: data items live in a map and the chain-persistence calls are
// no-ops.
type MemStore struct {
	mu   sync.Mutex
	data map[meta.DataID]memData
}

// memData is one held item. A long run of trailing zeros is kept as a
// length, like a sparse file: the simulated workloads publish a short
// header padded to the paper's 1 MB item, and a 50-node run holds thousands
// of replicas.
type memData struct {
	head []byte // content up to its zero tail
	size int    // full length
}

// sparseTail is the shortest zero tail MemStore keeps as a length.
const sparseTail = 4 << 10

// zeroBlock is what PutData compares a content's tail against.
var zeroBlock [sparseTail]byte

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[meta.DataID]memData)}
}

// RecoveredBlocks implements Backend (nothing survives a restart).
func (s *MemStore) RecoveredBlocks() []*block.Block { return nil }

// RecoveredPin implements Backend (nothing survives a restart).
func (s *MemStore) RecoveredPin() uint64 { return 0 }

// AppendBlock implements Backend as a no-op.
func (s *MemStore) AppendBlock(*block.Block) error { return nil }

// ResetChain implements Backend as a no-op.
func (s *MemStore) ResetChain([]*block.Block) error { return nil }

// Checkpoint implements Backend as a no-op.
func (s *MemStore) Checkpoint(uint64, block.Hash) error { return nil }

// SaveSnapshot implements Backend as a no-op (nothing survives a restart).
func (s *MemStore) SaveSnapshot(uint64, []byte, []chain.Header) error { return nil }

// RecoveredSnapshot implements Backend (nothing survives a restart).
func (s *MemStore) RecoveredSnapshot() ([]byte, []chain.Header, uint64, bool) {
	return nil, nil, 0, false
}

// CompactBlocks implements Backend as a no-op.
func (s *MemStore) CompactBlocks(uint64) error { return nil }

// PutData stores a copy of the content.
func (s *MemStore) PutData(id meta.DataID, content []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.data[id]; !ok {
		// Whole zero blocks first, one vectorised memequal each (1 MB of
		// padding: 35 µs on a 2-vCPU Xeon, where a byte loop took 0.8 ms),
		// then the rest of the tail byte by byte.
		head := len(content)
		for head >= sparseTail && bytes.Equal(content[head-sparseTail:head], zeroBlock[:]) {
			head -= sparseTail
		}
		for head > 0 && content[head-1] == 0 {
			head--
		}
		if len(content)-head < sparseTail {
			head = len(content)
		}
		s.data[id] = memData{head: append([]byte(nil), content[:head]...), size: len(content)}
	}
	return nil
}

// AppendData appends the stored content to dst. When dst has to grow, the
// fresh allocation comes zeroed, so only the stored head is copied and the
// zero tail costs no write.
func (s *MemStore) AppendData(dst []byte, id meta.DataID) ([]byte, bool) {
	s.mu.Lock()
	d, ok := s.data[id]
	s.mu.Unlock()
	if !ok {
		return dst, false
	}
	n := len(dst)
	if n+d.size <= cap(dst) {
		dst = dst[:n+d.size]
		clear(dst[n+len(d.head):])
	} else {
		dst = append(make([]byte, 0, n+d.size), dst...)[:n+d.size]
	}
	copy(dst[n:], d.head)
	return dst, true
}

// HasData reports whether the item is held.
func (s *MemStore) HasData(id meta.DataID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.data[id]
	return ok
}

// DeleteData removes the item.
func (s *MemStore) DeleteData(id meta.DataID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, id)
	return nil
}

// Close implements Backend as a no-op.
func (s *MemStore) Close() error { return nil }
