package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/wire"
)

// Serializable state snapshots and body pruning (DESIGN.md §14). The
// engine's periodic in-memory snapshots (sync.go) become exportable: a
// StateSnapshot carries everything a fresh node needs to stand at a
// finalized height without replaying from genesis — the full block at the
// snapshot height (the bootstrap anchor), the ledger counters, the storage
// view's block counts, and the item table: every item's latest on-chain
// version and which of them expired. The item assignments, per-node counts
// and pending expiries are not written: each item carries its storing
// nodes and valid time, so the receiver derives them. The encoding is
// deterministic (sorted IDs, one encoding per value), so its SHA-256
// content hash is comparable across nodes and transports.

// SnapshotVersion is the codec version embedded in every encoded snapshot.
// Version 5 dropped version 4's InChain, Assignments, Expiries and DataLive
// lists, which repeated what LiveItems and Expired say.
const SnapshotVersion = 5

var snapshotMagic = [4]byte{'S', 'N', 'A', 'P'}

// ErrBadSnapshot covers every snapshot decode or validation failure.
var ErrBadSnapshot = errors.New("engine: bad snapshot")

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
	BlockBodies []int
	RecentDepth []int
	ViewHeight  uint64

	// The view's item table (repair.Index.Export): LiveItems carries the
	// latest on-chain version of every item recorded up to Height, expired
	// or not (sorted by ID); Expired lists the IDs among them that have
	// expired (sorted).
	Expired   []meta.DataID
	LiveItems []*meta.Item
}

// --- codec ----------------------------------------------------------------

// Encode serializes the snapshot with the canonical deterministic layout:
// varint counts, heights and sizes like every other serialised form
// (DESIGN.md "Wire format").
func (s *StateSnapshot) Encode() []byte {
	uints := func(w []byte, ns []int) []byte {
		for _, n := range ns {
			w = binary.AppendUvarint(w, uint64(n))
		}
		return w
	}
	w := make([]byte, 0, 4096)
	w = append(w, snapshotMagic[:]...)
	w = binary.BigEndian.AppendUint32(w, SnapshotVersion)
	w = binary.AppendUvarint(w, s.Height)
	w = wire.AppendBytes(w, s.Block.Encode())

	w = binary.AppendUvarint(w, uint64(len(s.Ledger.Mined)))
	for _, v := range s.Ledger.Mined {
		w = binary.AppendUvarint(w, v)
	}
	for _, v := range s.Ledger.Stored {
		w = binary.AppendUvarint(w, v)
	}
	w = binary.AppendUvarint(w, s.Ledger.Applied)

	w = uints(w, s.BlockBodies)
	w = uints(w, s.RecentDepth)
	w = binary.AppendUvarint(w, s.ViewHeight)

	w = binary.AppendUvarint(w, uint64(len(s.Expired)))
	for _, id := range s.Expired {
		w = append(w, id[:]...)
	}
	w = binary.AppendUvarint(w, uint64(len(s.LiveItems)))
	for _, it := range s.LiveItems {
		w = it.AppendEncode(w)
	}
	return w
}

// DecodeSnapshot parses an encoded snapshot. It validates structure only
// (truncation, length sanity, block hash integrity via block.Decode);
// semantic validation against the local configuration happens in
// BootstrapFromSnapshot.
func DecodeSnapshot(data []byte) (*StateSnapshot, error) {
	r := wire.NewReader(data)
	if magic := r.Take(len(snapshotMagic)); r.Err() == nil && [4]byte(magic) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if v := r.Uint32(); r.Err() == nil && v != SnapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, v)
	}
	s := &StateSnapshot{}
	s.Height = r.Uvarint()
	if blockBlob := r.Bytes(); r.Err() == nil {
		b, err := block.Decode(blockBlob)
		if err != nil {
			return nil, fmt.Errorf("%w: anchor block: %v", ErrBadSnapshot, err)
		}
		s.Block = b
	}

	// Every list below is counted against the bytes that remain before it
	// is allocated, so a corrupt prefix cannot trigger a huge allocation.
	// The roster size n heads four per-node varint lists: mined, stored,
	// and the view's two block counts.
	n := r.Count(4)
	uints := func() []int {
		out := make([]int, n)
		for i := range out {
			out[i] = int(r.Uvarint())
		}
		return out
	}
	s.Ledger.Mined = make([]uint64, n)
	for i := range s.Ledger.Mined {
		s.Ledger.Mined[i] = r.Uvarint()
	}
	s.Ledger.Stored = make([]uint64, n)
	for i := range s.Ledger.Stored {
		s.Ledger.Stored[i] = r.Uvarint()
	}
	s.Ledger.Applied = r.Uvarint()

	s.BlockBodies = uints()
	s.RecentDepth = uints()
	s.ViewHeight = r.Uvarint()

	for i := r.Count(wire.HashSize); i > 0; i-- {
		s.Expired = append(s.Expired, r.Hash())
	}
	for i := r.Count(meta.MinEncodedSize); i > 0 && r.Err() == nil; i-- {
		s.LiveItems = append(s.LiveItems, meta.Read(r))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
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
		BlockBodies: slices.Clone(v.blockBodies),
		RecentDepth: slices.Clone(v.recentDepth),
		ViewHeight:  v.height,
	}
	out.LiveItems, out.Expired = v.items.Export()
	return out
}

// --- bootstrap ------------------------------------------------------------

// BootstrapFromSnapshot initializes a fresh engine (height 0, nothing
// adopted yet) from a finalized snapshot: the chain replica is anchored at
// the snapshot block, ledger/view/item state is restored without any
// replay (applying the items derives their assignments, per-node counts
// and pending expiries), and the snapshot is seeded into the
// periodic-snapshot ring so fork adoption works immediately above the
// anchor. Heights below the anchor stay unknown (header spine starts at
// the anchor); the node then catches up the live suffix through the normal
// §10 locator sync.
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
	if len(s.BlockBodies) != n || len(s.RecentDepth) != n {
		return fmt.Errorf("%w: view roster size mismatch (want %d nodes)", ErrBadSnapshot, n)
	}
	st := e.cfg.genesisState()
	if err := st.ledger.RestoreState(s.Ledger); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	view := st.view
	items, err := repair.RestoreIndex(n, s.LiveItems, s.Expired)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	view.items = items
	copy(view.blockBodies, s.BlockBodies)
	copy(view.recentDepth, s.RecentDepth)
	view.height = s.ViewHeight

	newCh, err := chain.NewBootstrapped(e.cfg.Genesis, s.Block)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	newCh.PreAppend = e.preAppend
	newCh.PostAppend = e.postAppend
	newCh.Sigs = &e.sigs

	// Commit.
	e.ch = newCh
	e.state = st
	for id := range e.pool {
		if e.OnChain(id) {
			delete(e.pool, id)
		}
	}
	e.snaps = []snapshot{{height: s.Height, hash: s.Block.Hash, state: st.clone()}}
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
