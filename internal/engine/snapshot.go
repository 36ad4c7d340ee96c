package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
	"repro/internal/pos"
)

// Serializable state snapshots and body pruning (DESIGN.md §14). The
// engine's periodic in-memory snapshots (sync.go) become exportable: a
// StateSnapshot carries everything a fresh node needs to stand at a
// finalized height without replaying from genesis — the full block at the
// snapshot height (the bootstrap anchor), the ledger counters, the storage
// view, and the on-chain item indexes. The encoding is deterministic
// (sorted IDs, fixed-width integers), so its SHA-256 content hash is
// comparable across nodes and transports.

// SnapshotVersion is the codec version embedded in every encoded snapshot.
const SnapshotVersion = 1

var snapshotMagic = [4]byte{'S', 'N', 'A', 'P'}

// ErrBadSnapshot covers every snapshot decode or validation failure.
var ErrBadSnapshot = errors.New("engine: bad snapshot")

// ItemExpiry is one pending valid-time expiry carried by a snapshot.
type ItemExpiry struct {
	At time.Duration
	ID meta.DataID
}

// ItemAssignment is one live storage assignment carried by a snapshot.
type ItemAssignment struct {
	ID    meta.DataID
	Nodes []int
}

// StateSnapshot is the engine's chain-derived state frozen at one height,
// in serializable form. Roster-indexed slices must match the receiving
// engine's Config.Accounts; configuration (capacities, mobility, planner
// parameters) is NOT part of the snapshot — both sides must already agree
// on it, exactly as they must agree on genesis.
type StateSnapshot struct {
	Height uint64
	// Block is the full block at Height: the bootstrap anchor the
	// receiving replica links its live suffix to.
	Block  *block.Block
	Ledger pos.LedgerState

	// Storage-view state (chain-derived portion).
	DataLive    []int
	BlockBodies []int
	RecentDepth []int
	ViewHeight  uint64
	Assignments []ItemAssignment // sorted by ID
	Expiries    []ItemExpiry     // sorted by (At, ID)
	Expired     []meta.DataID    // sorted

	// InChain lists every data ID recorded on-chain up to Height (sorted);
	// LiveItems carries the latest on-chain version of each live item
	// (sorted by ID).
	InChain   []meta.DataID
	LiveItems []*meta.Item
}

// --- codec ----------------------------------------------------------------

type snapWriter struct{ b []byte }

func (w *snapWriter) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }
func (w *snapWriter) raw(p []byte) { w.b = append(w.b, p...) }
func (w *snapWriter) blob(p []byte) {
	w.u32(uint32(len(p)))
	w.raw(p)
}

type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < 0 {
		r.fail("truncated at offset %d (want %d bytes)", r.off, n)
		return nil
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// count reads a list length and bounds it by the bytes remaining at
// entrySize bytes per entry, so corrupt prefixes cannot trigger huge
// allocations.
func (r *snapReader) count(entrySize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || entrySize > 0 && n > (len(r.b)-r.off)/entrySize {
		r.fail("list length %d exceeds remaining input", n)
		return 0
	}
	return n
}

func (r *snapReader) id() (id meta.DataID) {
	copy(id[:], r.take(len(id)))
	return id
}

func (r *snapReader) blob() []byte {
	n := r.count(1)
	return r.take(n)
}

func putIntList(w *snapWriter, ns []int) {
	w.u32(uint32(len(ns)))
	for _, n := range ns {
		w.u64(uint64(int64(n)))
	}
}

func putU64IntSlice(w *snapWriter, ns []int) {
	for _, n := range ns {
		w.u64(uint64(int64(n)))
	}
}

// Encode serializes the snapshot with the canonical deterministic layout.
func (s *StateSnapshot) Encode() []byte {
	w := &snapWriter{b: make([]byte, 0, 4096)}
	w.raw(snapshotMagic[:])
	w.u32(SnapshotVersion)
	w.u64(s.Height)
	w.blob(s.Block.Encode())

	n := len(s.Ledger.Mined)
	w.u32(uint32(n))
	for _, v := range s.Ledger.Mined {
		w.u64(v)
	}
	for _, v := range s.Ledger.Stored {
		w.u64(v)
	}
	for _, v := range s.Ledger.Rented {
		w.u64(uint64(v))
	}
	w.u64(s.Ledger.Applied)
	w.u64(math.Float64bits(s.Ledger.Scale))

	putU64IntSlice(w, s.DataLive)
	putU64IntSlice(w, s.BlockBodies)
	putU64IntSlice(w, s.RecentDepth)
	w.u64(s.ViewHeight)

	w.u32(uint32(len(s.Assignments)))
	for _, a := range s.Assignments {
		w.raw(a.ID[:])
		putIntList(w, a.Nodes)
	}
	w.u32(uint32(len(s.Expiries)))
	for _, e := range s.Expiries {
		w.u64(uint64(e.At))
		w.raw(e.ID[:])
	}
	w.u32(uint32(len(s.Expired)))
	for _, id := range s.Expired {
		w.raw(id[:])
	}
	w.u32(uint32(len(s.InChain)))
	for _, id := range s.InChain {
		w.raw(id[:])
	}
	w.u32(uint32(len(s.LiveItems)))
	for _, it := range s.LiveItems {
		w.blob(it.Encode())
	}
	return w.b
}

// ContentHash returns the SHA-256 of the canonical encoding; peers compare
// it before installing a transferred snapshot.
func (s *StateSnapshot) ContentHash() [sha256.Size]byte {
	return sha256.Sum256(s.Encode())
}

// DecodeSnapshot parses an encoded snapshot. It validates structure only
// (truncation, length sanity, block hash integrity via block.Decode);
// semantic validation against the local configuration happens in
// BootstrapFromSnapshot.
func DecodeSnapshot(data []byte) (*StateSnapshot, error) {
	r := &snapReader{b: data}
	var magic [4]byte
	copy(magic[:], r.take(4))
	if r.err == nil && magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.u32(); r.err == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	s := &StateSnapshot{}
	s.Height = r.u64()
	blockBlob := r.blob()
	if r.err == nil {
		b, err := block.Decode(blockBlob)
		if err != nil {
			return nil, fmt.Errorf("%w: anchor block: %v", ErrBadSnapshot, err)
		}
		s.Block = b
	}

	n := r.count(8)
	readU64s := func() []uint64 {
		if r.err != nil {
			return nil
		}
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.u64()
		}
		return out
	}
	readInts := func() []int {
		if r.err != nil {
			return nil
		}
		out := make([]int, n)
		for i := range out {
			out[i] = int(int64(r.u64()))
		}
		return out
	}
	s.Ledger.Mined = readU64s()
	s.Ledger.Stored = readU64s()
	s.Ledger.Rented = make([]int64, n)
	for i := range s.Ledger.Rented {
		s.Ledger.Rented[i] = int64(r.u64())
	}
	s.Ledger.Applied = r.u64()
	s.Ledger.Scale = math.Float64frombits(r.u64())

	s.DataLive = readInts()
	s.BlockBodies = readInts()
	s.RecentDepth = readInts()
	s.ViewHeight = r.u64()

	na := r.count(36)
	for i := 0; i < na && r.err == nil; i++ {
		a := ItemAssignment{ID: r.id()}
		m := r.count(8)
		if m > 0 && r.err == nil {
			a.Nodes = make([]int, m)
			for j := range a.Nodes {
				a.Nodes[j] = int(int64(r.u64()))
			}
		}
		s.Assignments = append(s.Assignments, a)
	}
	ne := r.count(40)
	for i := 0; i < ne && r.err == nil; i++ {
		at := time.Duration(r.u64())
		s.Expiries = append(s.Expiries, ItemExpiry{At: at, ID: r.id()})
	}
	nx := r.count(32)
	for i := 0; i < nx && r.err == nil; i++ {
		s.Expired = append(s.Expired, r.id())
	}
	nc := r.count(32)
	for i := 0; i < nc && r.err == nil; i++ {
		s.InChain = append(s.InChain, r.id())
	}
	nl := r.count(4)
	for i := 0; i < nl && r.err == nil; i++ {
		itemBlob := r.blob()
		if r.err != nil {
			break
		}
		it, err := meta.Decode(itemBlob)
		if err != nil {
			return nil, fmt.Errorf("%w: live item %d: %v", ErrBadSnapshot, i, err)
		}
		s.LiveItems = append(s.LiveItems, it)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, r.err)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-r.off)
	}
	return s, nil
}

// --- export ---------------------------------------------------------------

// ExportSnapshot serializes the newest retained periodic snapshot that is
// still on this chain and whose anchor body is still in the body window.
// ok is false when no such snapshot exists (snapshots disabled, or none
// taken yet).
func (e *Engine) ExportSnapshot() (*StateSnapshot, bool) {
	for i := len(e.snaps) - 1; i >= 0; i-- {
		s := e.snaps[i]
		hdr, ok := e.ch.HeaderAt(s.height)
		if !ok || hdr.Hash != s.hash {
			continue
		}
		b, err := e.ch.Body(s.height)
		if err != nil {
			continue
		}
		return exportSnapshot(s, b), true
	}
	return nil, false
}

func exportSnapshot(s snapshot, anchor *block.Block) *StateSnapshot {
	v := s.view
	out := &StateSnapshot{
		Height:      s.height,
		Block:       anchor,
		Ledger:      s.ledger.ExportState(),
		DataLive:    append([]int(nil), v.dataLive...),
		BlockBodies: append([]int(nil), v.blockBodies...),
		RecentDepth: append([]int(nil), v.recentDepth...),
		ViewHeight:  v.height,
	}
	out.Assignments = make([]ItemAssignment, 0, len(v.assignments))
	for id, nodes := range v.assignments {
		out.Assignments = append(out.Assignments, ItemAssignment{ID: id, Nodes: append([]int(nil), nodes...)})
	}
	sort.Slice(out.Assignments, func(i, j int) bool {
		return compareID(out.Assignments[i].ID, out.Assignments[j].ID) < 0
	})
	out.Expiries = make([]ItemExpiry, 0, len(v.expiries))
	for _, ex := range v.expiries {
		out.Expiries = append(out.Expiries, ItemExpiry{At: ex.at, ID: ex.id})
	}
	sort.Slice(out.Expiries, func(i, j int) bool {
		a, b := out.Expiries[i], out.Expiries[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return compareID(a.ID, b.ID) < 0
	})
	out.Expired = make([]meta.DataID, 0, len(v.expired))
	for id := range v.expired {
		out.Expired = append(out.Expired, id)
	}
	slices.SortFunc(out.Expired, compareID)
	out.InChain = make([]meta.DataID, 0, len(s.inChain))
	for id := range s.inChain {
		out.InChain = append(out.InChain, id)
	}
	slices.SortFunc(out.InChain, compareID)
	out.LiveItems = make([]*meta.Item, 0, len(s.liveItems))
	for _, it := range s.liveItems {
		out.LiveItems = append(out.LiveItems, it)
	}
	sort.Slice(out.LiveItems, func(i, j int) bool { return compareID(out.LiveItems[i].ID, out.LiveItems[j].ID) < 0 })
	return out
}

// --- bootstrap ------------------------------------------------------------

// BootstrapFromSnapshot initializes a fresh engine (height 0, nothing
// adopted yet) from a finalized snapshot: the chain replica is anchored at
// the snapshot block, ledger/view/item state is restored without any
// replay, and the snapshot is seeded into the periodic-snapshot ring so
// fork adoption works immediately above the anchor. Heights below the
// anchor stay unknown (header spine starts at the anchor); the node then
// catches up the live suffix through the normal §10 locator sync.
func (e *Engine) BootstrapFromSnapshot(s *StateSnapshot) error {
	if e.ch.Height() != 0 || e.ch.BodyBase() != 0 {
		return errors.New("engine: bootstrap requires a fresh engine at height 0")
	}
	if s == nil || s.Block == nil {
		return fmt.Errorf("%w: missing anchor block", ErrBadSnapshot)
	}
	if s.Height == 0 || s.Block.Index != s.Height {
		return fmt.Errorf("%w: anchor index %d does not match height %d", ErrBadSnapshot, s.Block.Index, s.Height)
	}
	if err := s.Block.VerifySelf(); err != nil {
		return fmt.Errorf("%w: anchor: %v", ErrBadSnapshot, err)
	}
	if s.Ledger.Applied != s.Height {
		return fmt.Errorf("%w: ledger applied %d, snapshot height %d", ErrBadSnapshot, s.Ledger.Applied, s.Height)
	}
	n := len(e.cfg.Accounts)
	if len(s.DataLive) != n || len(s.BlockBodies) != n || len(s.RecentDepth) != n {
		return fmt.Errorf("%w: view roster size mismatch (want %d nodes)", ErrBadSnapshot, n)
	}
	ledger := pos.NewLedger(e.cfg.Accounts)
	ledger.RescaleEvery = e.cfg.StakeRescaleEvery
	if err := ledger.RestoreState(s.Ledger); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	view := NewStorageView(n, e.cfg.StorageCapacity, e.cfg.MobilityRange, e.cfg.InitialRecentDepth, e.cfg.RecentDepthCap)
	copy(view.dataLive, s.DataLive)
	copy(view.blockBodies, s.BlockBodies)
	copy(view.recentDepth, s.RecentDepth)
	view.height = s.ViewHeight
	for _, a := range s.Assignments {
		view.assignments[a.ID] = append([]int(nil), a.Nodes...)
	}
	// A sorted-ascending array already satisfies the min-heap property.
	view.expiries = make(expiryHeap, 0, len(s.Expiries))
	for _, ex := range s.Expiries {
		view.expiries = append(view.expiries, expiry{at: ex.At, id: ex.ID})
	}
	for _, id := range s.Expired {
		view.expired[id] = true
	}

	newCh, err := chain.NewBootstrapped(e.cfg.Genesis, s.Block)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	newCh.PreAppend = e.preAppend
	newCh.PostAppend = e.postAppend
	newCh.Sigs = &e.sigs

	inChain := make(map[meta.DataID]bool, len(s.InChain))
	for _, id := range s.InChain {
		inChain[id] = true
	}
	liveItems := make(map[meta.DataID]*meta.Item, len(s.LiveItems))
	for _, it := range s.LiveItems {
		if !inChain[it.ID] {
			return fmt.Errorf("%w: live item %s not marked on-chain", ErrBadSnapshot, it.ID.Short())
		}
		liveItems[it.ID] = it
	}

	// Commit.
	e.ch = newCh
	e.ledger = ledger
	e.view = view
	e.inChain = inChain
	e.liveItems = liveItems
	for id := range e.pool {
		if inChain[id] {
			delete(e.pool, id)
		}
	}
	snap := snapshot{
		height:    s.Height,
		hash:      s.Block.Hash,
		ledger:    ledger.Clone(),
		view:      view.Clone(),
		inChain:   make(map[meta.DataID]bool, len(inChain)),
		liveItems: make(map[meta.DataID]*meta.Item, len(liveItems)),
	}
	for id := range inChain {
		snap.inChain[id] = true
	}
	for id, it := range liveItems {
		snap.liveItems[id] = it
	}
	e.snaps = []snapshot{snap}
	return nil
}

// --- pruning --------------------------------------------------------------

// PruneHorizon returns the height below which bodies may be discarded
// right now: the minimum of the newest checkpoint, the oldest retained
// snapshot, and tip minus PruneDepth. Zero means nothing is prunable.
func (e *Engine) PruneHorizon() uint64 {
	if e.cfg.PruneDepth <= 0 {
		return 0
	}
	h := e.ch.Height()
	depth := uint64(e.cfg.PruneDepth)
	if h < depth {
		return 0
	}
	horizon := h - depth
	if cp := e.LastCheckpoint(); cp < horizon {
		horizon = cp
	}
	if len(e.snaps) == 0 {
		return 0
	}
	if oldest := e.snaps[0].height; oldest < horizon {
		horizon = oldest
	}
	return horizon
}

// maybePrune discards bodies below the prune horizon (called after each
// periodic snapshot). AdoptSuffix never needs bodies below the horizon:
// forks below the checkpoint are refused, and replay always starts at a
// retained snapshot, both of which bound the horizon.
func (e *Engine) maybePrune() {
	horizon := e.PruneHorizon()
	if horizon == 0 || horizon <= e.ch.BodyBase() {
		return
	}
	if n := e.ch.Prune(horizon); n > 0 && e.cfg.OnPrune != nil {
		e.cfg.OnPrune(horizon, n)
	}
}
