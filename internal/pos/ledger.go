package pos

import (
	"fmt"

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
type Ledger struct {
	accounts  []identity.Address
	byAccount map[identity.Address]int
	mined     []uint64
	stored    []uint64
	// rented tracks Nxt-style token rentals (Section V-D: a new node can
	// "rent some resources from an existing node to get started"):
	// positive for borrowers, negative for lenders. Rentals happen through
	// an out-of-band agreement, so they are not chain-derived state; they
	// reset on Rebuild.
	rented []int64
	// applied is the height of the last applied block, to enforce in-order
	// application.
	applied uint64
	// RescaleEvery, when positive, automatically divides all stakes by
	// RescaleRatio every RescaleEvery applied blocks (Section V-B: "a
	// simple solution is to decrease S_i for all nodes simultaneously (by
	// ratio) after a certain number of blocks"). Because every node
	// derives the ledger from the same chain, the rescaling happens at
	// the same heights everywhere with no coordination.
	RescaleEvery uint64
	// RescaleRatio is the divisor used by automatic rescaling (default 2).
	RescaleRatio float64
	// scale is the cumulative stake rescaling divisor of Section V-B
	// ("decrease S_i for all nodes simultaneously (by ratio) ... and
	// increase B by the same ratio"). It cancels out of R_i exactly (the
	// paper notes relative advantages stay the same); it exists to keep B
	// representable. Exposed for the invariance test and ablation.
	scale float64
}

// NewLedger creates a ledger for the fixed node set. Index k in accounts
// is node ID k.
func NewLedger(accounts []identity.Address) *Ledger {
	l := &Ledger{
		accounts:  append([]identity.Address(nil), accounts...),
		byAccount: make(map[identity.Address]int, len(accounts)),
		mined:     make([]uint64, len(accounts)),
		stored:    make([]uint64, len(accounts)),
		rented:    make([]int64, len(accounts)),
		scale:     1,
	}
	for i, a := range accounts {
		l.byAccount[a] = i
	}
	return l
}

// N returns the number of nodes.
func (l *Ledger) N() int { return len(l.accounts) }

// IndexOf maps an account to its node index.
func (l *Ledger) IndexOf(a identity.Address) (int, bool) {
	i, ok := l.byAccount[a]
	return i, ok
}

// Account returns the account of node i.
func (l *Ledger) Account(i int) identity.Address { return l.accounts[i] }

// S returns node i's token count S_i (≥ 1), including rentals.
func (l *Ledger) S(i int) uint64 {
	s := int64(1+l.mined[i]) + l.rented[i]
	if s < 1 {
		return 1
	}
	return uint64(s)
}

// Rent transfers amount tokens from lender to borrower (Section V-D's
// bootstrap for new nodes). The lender must retain at least one token.
func (l *Ledger) Rent(lender, borrower int, amount uint64) error {
	if lender < 0 || lender >= l.N() || borrower < 0 || borrower >= l.N() {
		return fmt.Errorf("pos: rent between unknown nodes %d -> %d", lender, borrower)
	}
	if lender == borrower {
		return fmt.Errorf("pos: node %d cannot rent to itself", lender)
	}
	if l.S(lender) <= amount {
		return fmt.Errorf("pos: lender %d has %d tokens, cannot rent %d (must keep 1)", lender, l.S(lender), amount)
	}
	l.rented[lender] -= int64(amount)
	l.rented[borrower] += int64(amount)
	return nil
}

// Q returns node i's stored-item count Q_i (≥ 1).
func (l *Ledger) Q(i int) uint64 { return 1 + l.stored[i] }

// U returns U_i = S_i · Q_i.
func (l *Ledger) U(i int) float64 { return float64(l.S(i)) * float64(l.Q(i)) / l.scale }

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

// Scale returns the current stake rescaling divisor.
func (l *Ledger) Scale() float64 { return l.scale }

// ApplyBlock folds one block into the stake state. Blocks must be applied
// in order starting at height 1.
func (l *Ledger) ApplyBlock(b *block.Block) error {
	if b.Index != l.applied+1 {
		return fmt.Errorf("pos: apply block %d after height %d", b.Index, l.applied)
	}
	if !b.Miner.IsZero() {
		if i, ok := l.byAccount[b.Miner]; ok {
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
	if l.RescaleEvery > 0 && l.applied%l.RescaleEvery == 0 {
		ratio := l.RescaleRatio
		if ratio <= 1 {
			ratio = 2
		}
		l.Rescale(ratio)
	}
	return nil
}

// Clone returns an independent deep copy of the ledger's mutable state.
// The account roster (immutable after construction) is shared. Snapshots
// for incremental fork adoption (engine.AdoptSuffix) are built from
// clones so replaying a candidate suffix cannot corrupt the live ledger.
func (l *Ledger) Clone() *Ledger {
	cp := &Ledger{
		accounts:     l.accounts,
		byAccount:    l.byAccount,
		mined:        append([]uint64(nil), l.mined...),
		stored:       append([]uint64(nil), l.stored...),
		rented:       append([]int64(nil), l.rented...),
		applied:      l.applied,
		RescaleEvery: l.RescaleEvery,
		RescaleRatio: l.RescaleRatio,
		scale:        l.scale,
	}
	return cp
}

// Rebuild replays a whole chain (excluding genesis) into a fresh state: the
// from-scratch form that incremental application is audited against (the
// engine's reference oracle, bench/'s ledger probes). No node path calls it.
func (l *Ledger) Rebuild(blocks []*block.Block) error {
	for i := range l.mined {
		l.mined[i] = 0
		l.stored[i] = 0
		l.rented[i] = 0
	}
	l.applied = 0
	l.scale = 1
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
	Rented  []int64
	Applied uint64
	Scale   float64
}

// ExportState copies out the ledger's chain-derived state.
func (l *Ledger) ExportState() LedgerState {
	return LedgerState{
		Mined:   append([]uint64(nil), l.mined...),
		Stored:  append([]uint64(nil), l.stored...),
		Rented:  append([]int64(nil), l.rented...),
		Applied: l.applied,
		Scale:   l.scale,
	}
}

// RestoreState overwrites the ledger's chain-derived state from an
// exported snapshot; the roster (and therefore the slice lengths) must
// match the one the ledger was constructed with.
func (l *Ledger) RestoreState(st LedgerState) error {
	if len(st.Mined) != l.N() || len(st.Stored) != l.N() || len(st.Rented) != l.N() {
		return fmt.Errorf("pos: snapshot roster size %d/%d/%d, ledger has %d nodes",
			len(st.Mined), len(st.Stored), len(st.Rented), l.N())
	}
	if st.Scale < 1 {
		return fmt.Errorf("pos: snapshot scale %v below 1", st.Scale)
	}
	copy(l.mined, st.Mined)
	copy(l.stored, st.Stored)
	copy(l.rented, st.Rented)
	l.applied = st.Applied
	l.scale = st.Scale
	return nil
}

// Rescale divides all effective stakes by ratio (> 1). Per Section V-B
// this is applied "after a certain number of blocks" purely to keep B's
// magnitude manageable; R_i values are unchanged because B grows by the
// same ratio through Ū.
func (l *Ledger) Rescale(ratio float64) {
	if ratio > 1 {
		l.scale *= ratio
	}
}
