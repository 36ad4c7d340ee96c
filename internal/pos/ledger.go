package pos

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/block"
	"repro/internal/identity"
)

// Ledger derives every node's stake (S_i, tokens) and storage contribution
// (Q_i, stored items) deterministically from the chain history, so all
// nodes agree on targets without extra messages ("S and Q of each node can
// be obtained and validated through the history of the blockchain",
// Section V-A).
//
// Counting rules:
//   - S_i starts at 1 (a new node "requires to have at least one token")
//     and earns +1 per block mined.
//   - Q_i starts at 1 (every node stores at least the last block) and
//     earns +1 for each data item it is assigned to store, each block body
//     it is assigned to store, and each recent-block assignment
//     ("the chosen nodes will then get the same incentive as the nodes
//     that store a data item or a block", Section IV-C).
//
// Nothing else moves a stake: the paper's token renting (Section V-D) and
// stake rescaling (Section V-B) are not implemented (DESIGN.md §6).
type Ledger struct {
	accounts []identity.Address // the caller's roster, never written
	byAddr   []int32            // roster positions sorted by address (IndexOf)
	mined    []uint64
	stored   []uint64
	// applied is the height of the last applied block, to enforce in-order
	// application.
	applied uint64
}

// NewLedger creates a ledger for the fixed node set. Index k in accounts
// is node ID k. The ledger keeps accounts without copying it: the roster
// is immutable, and the caller must not write to the slice afterwards
// (every node of a cluster shares one).
func NewLedger(accounts []identity.Address) *Ledger {
	// Sort (leading 8 bytes, position) pairs: an address is a hash, so the
	// prefixes nearly always differ and the rare tie falls back to the rest
	// of the address. Ties on the whole address go to the roster position,
	// so IndexOf answers with the last position of a repeated address.
	type entry struct {
		prefix uint64
		pos    int32
	}
	es := make([]entry, len(accounts))
	for i := range accounts {
		es[i] = entry{binary.BigEndian.Uint64(accounts[i][:8]), int32(i)}
	}
	slices.SortFunc(es, func(x, y entry) int {
		if x.prefix != y.prefix {
			return cmp.Compare(x.prefix, y.prefix)
		}
		return cmp.Or(bytes.Compare(accounts[x.pos][8:], accounts[y.pos][8:]), cmp.Compare(x.pos, y.pos))
	})
	l := &Ledger{
		accounts: accounts,
		byAddr:   make([]int32, len(accounts)),
		mined:    make([]uint64, len(accounts)),
		stored:   make([]uint64, len(accounts)),
	}
	for k, e := range es {
		l.byAddr[k] = e.pos
	}
	return l
}

// N returns the number of nodes.
func (l *Ledger) N() int { return len(l.accounts) }

// IndexOf maps an account to its node index (the last one, should the
// roster name it twice), by binary search over the sorted positions.
func (l *Ledger) IndexOf(a identity.Address) (int, bool) {
	above := sort.Search(len(l.byAddr), func(k int) bool {
		return bytes.Compare(l.accounts[l.byAddr[k]][:], a[:]) > 0
	})
	if above == 0 || l.accounts[l.byAddr[above-1]] != a {
		return 0, false
	}
	return int(l.byAddr[above-1]), true
}

// Account returns the account of node i.
func (l *Ledger) Account(i int) identity.Address { return l.accounts[i] }

// S returns node i's token count S_i = 1 + blocks mined.
func (l *Ledger) S(i int) uint64 { return 1 + l.mined[i] }

// Q returns node i's stored-item count Q_i (≥ 1).
func (l *Ledger) Q(i int) uint64 { return 1 + l.stored[i] }

// U returns U_i = S_i · Q_i.
func (l *Ledger) U(i int) float64 { return float64(l.S(i)) * float64(l.Q(i)) }

// UBar returns Ū, the mean of U_i over all nodes.
func (l *Ledger) UBar() float64 {
	if l.N() == 0 {
		return 0
	}
	sum := 0.0
	for i := range l.accounts {
		sum += l.U(i)
	}
	return sum / float64(l.N())
}

// Height returns the last applied block height.
func (l *Ledger) Height() uint64 { return l.applied }

// ApplyBlock folds one block into the stake state. Blocks must be applied
// in order starting at height 1.
func (l *Ledger) ApplyBlock(b *block.Block) error {
	if b.Index != l.applied+1 {
		return fmt.Errorf("pos: apply block %d after height %d", b.Index, l.applied)
	}
	if !b.Miner.IsZero() {
		if i, ok := l.IndexOf(b.Miner); ok {
			l.mined[i]++
		}
	}
	credit := func(nodes []int) {
		for _, n := range nodes {
			if n >= 0 && n < len(l.stored) {
				l.stored[n]++
			}
		}
	}
	for _, it := range b.Items {
		credit(it.StoringNodes)
	}
	credit(b.StoringNodes)
	credit(b.RecentAssignees)
	l.applied = b.Index
	return nil
}

// Clone returns an independent deep copy of the ledger's mutable state.
// The account roster and its index (immutable) are shared. Snapshots
// for incremental fork adoption (engine.AdoptSuffix) are built from
// clones so replaying a candidate suffix cannot corrupt the live ledger.
func (l *Ledger) Clone() *Ledger {
	return &Ledger{
		accounts: l.accounts,
		byAddr:   l.byAddr,
		mined:    append([]uint64(nil), l.mined...),
		stored:   append([]uint64(nil), l.stored...),
		applied:  l.applied,
	}
}

// Rebuild replays a whole chain (excluding genesis) into a fresh state: the
// from-scratch form that incremental application is audited against (the
// engine's reference oracle, bench/'s ledger probes). No node path calls it.
func (l *Ledger) Rebuild(blocks []*block.Block) error {
	for i := range l.mined {
		l.mined[i] = 0
		l.stored[i] = 0
	}
	l.applied = 0
	for _, b := range blocks {
		if b.Index == 0 {
			continue
		}
		if err := l.ApplyBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// LedgerState is the chain-derived portion of a ledger in exportable form,
// used by the engine's serializable snapshots (DESIGN.md §14). Slices index
// by node ID, matching the roster the ledger was built with.
type LedgerState struct {
	Mined   []uint64
	Stored  []uint64
	Applied uint64
}

// ExportState copies out the ledger's chain-derived state.
func (l *Ledger) ExportState() LedgerState {
	return LedgerState{
		Mined:   append([]uint64(nil), l.mined...),
		Stored:  append([]uint64(nil), l.stored...),
		Applied: l.applied,
	}
}

// RestoreState overwrites the ledger's chain-derived state from an
// exported snapshot; the roster (and therefore the slice lengths) must
// match the one the ledger was constructed with.
func (l *Ledger) RestoreState(st LedgerState) error {
	if len(st.Mined) != l.N() || len(st.Stored) != l.N() {
		return fmt.Errorf("pos: snapshot roster size %d/%d, ledger has %d nodes",
			len(st.Mined), len(st.Stored), l.N())
	}
	copy(l.mined, st.Mined)
	copy(l.stored, st.Stored)
	l.applied = st.Applied
	return nil
}
