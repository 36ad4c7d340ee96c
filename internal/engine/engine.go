// Package engine is the single implementation of the edge blockchain's
// consensus and allocation rules: block validation (PoS-claim preAppend
// checks), block adoption and longest-valid-chain fork choice, S_i/Q_i
// ledger accounting, metadata-pool packing, the eq. 14 round-time
// computation (via internal/pos) and the UFL placement decisions that go
// into every mined block.
//
// The engine is transport- and clock-agnostic: it never does I/O and it
// never sleeps. Its one adapter, internal/livenode.Node, runs it over real
// sockets and the wall clock or over the in-memory transport and the virtual
// clock; it injects a time source (Config.Now), the topology its transport
// gives (a 1-hop clique, or a radio field's home graph), and the
// OnAppend/OnDisconnect callbacks, and it decides when to call
// NextRound/Mine and what to do with the blocks the engine hands back. A
// block joins the chain one of two ways — appended to the tip (ReceiveBlock,
// Mine, AppendTrusted) or as part of a longer suffix (AdoptSuffix) — and both
// report it with the same AppendEvent.
//
// The engine itself is NOT internally locked: the live node wraps every
// engine call in its own mutex. Callbacks (OnAppend, OnDisconnect, Topology,
// Now) are invoked synchronously from whatever engine method triggered them.
package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/repair"
)

// ItemEvent describes one data item carried by an adopted block, with the
// context an adapter needs to act on it (fetch, release, schedule expiry).
type ItemEvent struct {
	// Item is the packed item, StoringNodes assigned.
	Item *meta.Item
	// Prev is the previously live on-chain version as of before this
	// block: non-nil for a re-announcement (repair), nil when the ID
	// appears on chain for the first time.
	Prev *meta.Item
	// AssignedToSelf reports whether Config.Self is a storing node of Item.
	AssignedToSelf bool
}

// AppendEvent is passed to Config.OnAppend after the engine has applied a
// block's ledger, storage-view and pool side effects. Item contexts are as
// of the block's parent, whichever way the block joined the chain.
type AppendEvent struct {
	Block *block.Block
	Items []ItemEvent
}

// Round is one armed mining round: the tip it extends, the winning time T
// in whole seconds and the eq. 14 amendment B to record in the block.
type Round struct {
	PrevHash      block.Hash
	PrevTimestamp time.Duration
	T             uint64
	B             float64
}

// FireAt returns the virtual time at which the round is won.
func (r Round) FireAt() time.Duration {
	return r.PrevTimestamp + time.Duration(r.T)*time.Second
}

// MineResult is a successfully sealed and self-adopted block.
type MineResult struct {
	Block *block.Block
	// Repairs counts the repair re-announcements packed into the block:
	// under-replicated items re-placed away from dead providers.
	Repairs int
}

const (
	// futureSkew is the clock-skew tolerance for incoming block timestamps.
	futureSkew = 2 * time.Second
	// repairMaxPerBlock bounds the repair re-announcements packed into one
	// mined block; repair packing runs only when Config.Liveness is set.
	repairMaxPerBlock = 4
)

// Config wires an Engine to its host node.
type Config struct {
	// Accounts is the fixed roster; index k is node ID k.
	Accounts []identity.Address
	// Self is this node's roster index.
	Self int
	// PoS holds the mining parameters.
	PoS pos.Params
	// Genesis is the shared genesis block.
	Genesis *block.Block
	// Now returns the current time as an offset from the shared epoch.
	Now func() time.Duration

	// ValidateClaims enables PoS-claim validation in preAppend and
	// AdoptSuffix. Every runtime caller sets it; the field stays because
	// bench/probes.go sets it too, until the benchmark harness is next
	// changed (ROADMAP item 4).
	ValidateClaims bool
	// SnapshotInterval, when positive, freezes a ledger/view snapshot
	// every this many blocks so AdoptSuffix can validate fork suffixes by
	// replaying only blocks past the snapshot instead of the whole chain
	// (0 = snapshots off; true forks then always replay from genesis).
	SnapshotInterval int
	// VerifyWorkers bounds the goroutine pool AdoptSuffix uses to verify
	// batch block content (hashes + metadata signatures) in parallel;
	// <= 1 verifies sequentially. The accept/reject outcome is
	// deterministic regardless of the setting.
	VerifyWorkers int
	// PruneDepth, when positive, enables the finite-lifetime chain
	// (DESIGN.md §14) and, at the same interval, Section V-D checkpoint
	// finality: a fork candidate rewriting history at or below the newest
	// multiple of PruneDepth is refused even if longer, and after each
	// periodic snapshot block bodies below min(newest checkpoint, oldest
	// retained snapshot, tip-PruneDepth) are discarded, keeping only the
	// header spine. Requires SnapshotInterval > 0; with the checkpoints it
	// guarantees adoption never needs a pruned body.
	PruneDepth int
	// OnPrune, if set, is called synchronously after bodies below horizon
	// were discarded (pruned = how many), so adapters can compact
	// persistent storage to match.
	OnPrune func(horizon uint64, pruned int)

	// Topology returns the placement topology: a 1-hop clique for a full
	// mesh, the radio field's home graph for a multi-hop transport.
	Topology func() *netsim.Topology
	// Planner places data items (replica floor enforced); BlockPlanner
	// places block bodies and recent-block assignments without one.
	Planner      *alloc.Planner
	BlockPlanner *alloc.Planner
	// StorageCapacity is the per-node storage in items.
	StorageCapacity int
	// MobilityRange feeds the RDC mobility terms of the storage view.
	MobilityRange float64
	// InitialRecentDepth is ignored: every node's recent-cache allowance
	// starts at 1 (Section IV-C: each node caches at least the newest
	// block).
	//
	// Deprecated: kept so existing callers compile; set nothing.
	InitialRecentDepth int
	// RandomPlacement switches item placement to the random baseline with
	// the optimal replica count (Section VI-B); Rand must then be set.
	RandomPlacement bool
	Rand            *rand.Rand

	// Liveness, when set, reports each roster node's churn verdict (from
	// the adapter's repair.Detector) and turns repair packing on. The engine
	// keeps placements off suspect and dead nodes and re-replicates items
	// whose providers died. nil = every node alive, no repair packing.
	Liveness func(i int) repair.Status

	// OnAppend, if set, is called synchronously after each connected
	// block's state transitions (ledger, view and its item index, pool): once
	// per tip append, and once per suffix block, oldest first, after
	// AdoptSuffix has committed the whole suffix.
	OnAppend func(ev AppendEvent)
	// OnDisconnect, if set, is called when AdoptSuffix replaced this node's
	// own blocks above the fork point: once, after the commit and before
	// the suffix's first OnAppend, with the blocks that left the chain,
	// oldest first. The adapter cuts whatever it derived from them back to
	// disconnected[0].Index-1; the OnAppend calls then rebuild it.
	OnDisconnect func(disconnected []*block.Block)
}

// state is what the engine derives from the chain alone: the same block
// sequence gives the same state on every node. The view's item index is
// the one per-item table: which items are on chain, in which version, and
// stored by whom. Fork adoption validates a suffix on a clone and swaps it
// in whole.
type state struct {
	ledger *pos.Ledger
	view   *StorageView
}

// genesisState is the state of a chain that holds only genesis.
func (cfg *Config) genesisState() state {
	return state{
		ledger: pos.NewLedger(cfg.Accounts),
		view:   NewStorageView(len(cfg.Accounts), cfg.StorageCapacity, cfg.MobilityRange),
	}
}

// clone returns an independent copy (the items themselves are immutable
// and shared).
func (s state) clone() state {
	return state{ledger: s.ledger.Clone(), view: s.view.Clone()}
}

// apply folds block b, the successor of the state's tip, into the state and,
// when report is set (somebody listens), returns one ItemEvent per item of b,
// each against the state before that item.
func (s *state) apply(b *block.Block, self int, report bool) ([]ItemEvent, error) {
	if err := s.ledger.ApplyBlock(b); err != nil {
		return nil, err
	}
	if !report {
		s.view.ApplyBlock(b, nil)
		return nil, nil
	}
	events := make([]ItemEvent, 0, len(b.Items))
	s.view.ApplyBlock(b, func(it, prev *meta.Item) {
		events = append(events, ItemEvent{
			Item:           it,
			Prev:           prev,
			AssignedToSelf: slices.Contains(it.StoringNodes, self),
		})
	})
	return events, nil
}

// Engine owns all chain-derived consensus state of one node.
type Engine struct {
	cfg Config
	ch  *chain.Chain
	state

	pool map[meta.DataID]*meta.Item
	// repairCursor round-robins re-announcement (repair) checks across
	// live items.
	repairCursor int
	// snaps holds the periodic state snapshots AdoptSuffix adopts from
	// (ascending height, at most snapshotKeep entries).
	snaps []snapshot
	// sigs is this node's verified-signature cache, shared with its chain
	// replica: relay, block adoption, fork suffixes and full replays verify
	// each producer signature once between them.
	sigs meta.SigCache

	// Per-round scratch reused across Mine calls so the mining hot path
	// stays allocation-flat as the cluster scales; each buffer is reset,
	// never shared outside the round.
	mineStates    []alloc.NodeState
	mineAnnounced map[meta.DataID]bool
	poolScratch   []*meta.Item
}

// New builds an engine. The genesis block is adopted immediately.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Accounts) == 0 {
		return nil, errors.New("engine: empty account roster")
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Accounts) {
		return nil, fmt.Errorf("engine: self index %d outside roster of %d", cfg.Self, len(cfg.Accounts))
	}
	if err := cfg.PoS.Validate(); err != nil {
		return nil, err
	}
	if cfg.Genesis == nil {
		return nil, errors.New("engine: missing genesis block")
	}
	if cfg.Now == nil {
		return nil, errors.New("engine: missing time source")
	}
	if cfg.Topology == nil {
		return nil, errors.New("engine: missing topology source")
	}
	if cfg.Planner == nil || cfg.BlockPlanner == nil {
		return nil, errors.New("engine: missing planners")
	}
	if cfg.RandomPlacement && cfg.Rand == nil {
		return nil, errors.New("engine: random placement needs a Rand source")
	}
	if cfg.PruneDepth > 0 && cfg.SnapshotInterval <= 0 {
		return nil, errors.New("engine: PruneDepth requires SnapshotInterval")
	}
	e := &Engine{cfg: cfg, state: cfg.genesisState(), pool: make(map[meta.DataID]*meta.Item)}
	e.ch = chain.New(cfg.Genesis)
	e.ch.PreAppend = e.preAppend
	e.ch.PostAppend = e.postAppend
	e.ch.Sigs = &e.sigs
	return e, nil
}

// --- accessors ------------------------------------------------------------

// Chain returns the engine's chain replica.
func (e *Engine) Chain() *chain.Chain { return e.ch }

// Ledger returns the engine's stake ledger.
func (e *Engine) Ledger() *pos.Ledger { return e.ledger }

// View returns the chain-derived storage view.
func (e *Engine) View() *StorageView { return e.view }

// Tip returns the current tip block.
func (e *Engine) Tip() *block.Block { return e.ch.Tip() }

// Height returns the chain height.
func (e *Engine) Height() uint64 { return e.ch.Height() }

// OnChain reports whether an item with the given ID is recorded on-chain.
func (e *Engine) OnChain(id meta.DataID) bool { return e.LiveItem(id) != nil }

// LiveItem returns the latest on-chain version of the item, expired or not
// (nil if none).
func (e *Engine) LiveItem(id meta.DataID) *meta.Item { return e.view.items.Item(id) }

// PoolLen returns the metadata-pool size.
func (e *Engine) PoolLen() int { return len(e.pool) }

// SigCacheStats returns how many signature checks the engine's
// verified-signature cache answered (hits) and how many went to ed25519
// (misses).
func (e *Engine) SigCacheStats() (hits, misses uint64) { return e.sigs.Stats() }

// SigKeyTables returns how many producer-key tables the engine's cache has
// built and how many it holds (DESIGN.md §16 "Verify fast").
func (e *Engine) SigKeyTables() (built uint64, held int) { return e.sigs.Tables() }

// SigFirstChecks returns how many of the cache's misses were verified
// without a producer key's tables (DESIGN.md §16 "Verify fast").
func (e *Engine) SigFirstChecks() uint64 { return e.sigs.FirstChecks() }

// --- metadata pool --------------------------------------------------------

// AddMetadata verifies and pools a metadata item received from the
// network; duplicates and items already on-chain are dropped. It reports
// whether the item entered the pool.
func (e *Engine) AddMetadata(it *meta.Item) bool {
	if e.OnChain(it.ID) || e.pool[it.ID] != nil {
		return false
	}
	if err := it.VerifyCached(&e.sigs); err != nil {
		return false // forged metadata: drop
	}
	e.pool[it.ID] = it
	return true
}

// AddLocal pools an item this node produced itself (already trusted).
func (e *Engine) AddLocal(it *meta.Item) { e.pool[it.ID] = it }

// PoolHas reports whether the metadata pool currently holds id.
func (e *Engine) PoolHas(id meta.DataID) bool { return e.pool[id] != nil }

// PoolItem returns the pooled item for id (nil when absent). The item is
// shared and must not be mutated.
func (e *Engine) PoolItem(id meta.DataID) *meta.Item { return e.pool[id] }

// PoolIDs returns the IDs currently pooled, in no particular order. The
// metadata-gossip differential tests sort and digest them.
func (e *Engine) PoolIDs() []meta.DataID {
	out := make([]meta.DataID, 0, len(e.pool))
	for id := range e.pool {
		out = append(out, id)
	}
	return out
}

// poolItems returns the unexpired, not-yet-on-chain pool items in
// deterministic order (by ID bytes), pruning the rest.
func (e *Engine) poolItems(now time.Duration) []*meta.Item {
	items := e.poolScratch[:0]
	for id, it := range e.pool {
		if it.Expired(now) || e.OnChain(id) {
			delete(e.pool, id)
			continue
		}
		items = append(items, it)
	}
	e.poolScratch = items
	slices.SortFunc(items, func(a, b *meta.Item) int { return compareID(a.ID, b.ID) })
	return items
}

// compareID orders data IDs by their bytes.
func compareID(a, b meta.DataID) int { return bytes.Compare(a[:], b[:]) }

// --- validation & adoption ------------------------------------------------

// preAppend is the chain hook validating a block against the ledger state
// and the item table as of its parent.
func (e *Engine) preAppend(prev, b *block.Block) error {
	// Reject timestamps from the future (a miner cannot backdate thanks to
	// pos.ErrBadElapsed, nor post-date past the receiver's clock).
	if b.Timestamp > e.cfg.Now()+futureSkew {
		return fmt.Errorf("engine: block %d timestamp in the future", b.Index)
	}
	// Items a snapshot could not restore as this node holds them are
	// refused (repair.Index.Admit), so every snapshot of the chain installs.
	if err := e.view.items.Admit(b.Items); err != nil {
		return fmt.Errorf("engine: block %d: %w", b.Index, err)
	}
	if !e.cfg.ValidateClaims {
		return nil
	}
	return e.cfg.PoS.ValidateClaim(prev, b, e.ledger)
}

// postAppend is the chain hook applying an adopted block's side effects:
// ledger accounting, storage view and its item index, and pool pruning.
// The adapter's OnAppend callback then layers physical storage, fetches
// and telemetry on top.
func (e *Engine) postAppend(b *block.Block) {
	items, err := e.state.apply(b, e.cfg.Self, e.cfg.OnAppend != nil)
	if err != nil {
		// Cannot happen: PreAppend guarantees in-order application.
		panic(fmt.Sprintf("engine: ledger apply: %v", err))
	}
	for _, it := range b.Items {
		delete(e.pool, it.ID)
	}
	e.maybeSnapshot(b.Index)
	if cb := e.cfg.OnAppend; cb != nil {
		cb(AppendEvent{Block: b, Items: items})
	}
}

// ReceiveBlock runs a network block through validation and adoption and
// returns how many blocks it appended: 1, or 0 with an error (chain.Add).
// Gap and fork-link errors are the adapter's cue to fetch the missing
// blocks and hand them to ReceiveBlock or AdoptSuffix.
func (e *Engine) ReceiveBlock(b *block.Block) (appended int, err error) {
	return e.ch.Add(b)
}

// AppendTrusted appends an already-validated block (WAL replay), skipping
// claim checks but running the normal state transitions.
func (e *Engine) AppendTrusted(b *block.Block) error {
	return e.ch.AppendTrusted(b)
}

// LastCheckpoint returns the height of the newest finalized block under
// the checkpoint rule, a multiple of PruneDepth (0 when pruning is off or
// no checkpoint was reached yet). A checkpoint
// is final once a block is built on it: while it is the tip, a sibling mined
// at the same instant can still win (longest chain), or two replicas that
// saw the siblings in different orders would each finalize their own.
func (e *Engine) LastCheckpoint() uint64 {
	k, h := uint64(e.cfg.PruneDepth), e.ch.Height()
	if k == 0 || h == 0 {
		return 0
	}
	return (h - 1) / k * k
}

// --- mining ---------------------------------------------------------------

// NextRound computes this node's mining round on top of the current tip.
// ok is false when the node cannot mine this round.
func (e *Engine) NextRound() (r Round, ok bool) {
	prev := e.ch.Tip()
	t, bval := e.cfg.PoS.Round(prev, e.cfg.Accounts[e.cfg.Self], e.ledger)
	if t == pos.NeverMines {
		return Round{}, false
	}
	return Round{PrevHash: prev.Hash, PrevTimestamp: prev.Timestamp, T: t, B: bval}, true
}

// Mine assembles, self-adopts and returns the next block for a round won
// at the current time: pool items are packed in deterministic order with
// UFL placements, block-body and recent-block assignments are solved on
// the same scratch state, and under-replicated items are re-announced
// (repair). It returns (nil, nil) when the round moved on (the tip
// changed), and an error only when the engine rejects its own block — a
// programming error the adapter surfaces loudly.
func (e *Engine) Mine(r Round) (*MineResult, error) {
	prev := e.ch.Tip()
	if prev.Hash != r.PrevHash {
		return nil, nil // the round moved on
	}
	now := e.cfg.Now()
	bld := block.NewBuilder(prev, e.cfg.Accounts[e.cfg.Self], now, r.T, r.B)

	// Scratch storage view: assignments within this block must see each
	// other so one block doesn't dump everything on the same nodes.
	e.mineStates = e.view.NodeStatesInto(e.mineStates, now)
	states := e.mineStates
	// Placement plans on home positions: the RDC (eq. 2) covers short-term
	// movement through the mobility-range terms, so the plan stays valid
	// while the live topology wobbles.
	topo := e.cfg.Topology()

	// announced collects every ID packed into this block so repair never
	// re-announces an item the block already carries.
	if e.mineAnnounced == nil {
		e.mineAnnounced = make(map[meta.DataID]bool)
	}
	clear(e.mineAnnounced)
	announced := e.mineAnnounced
	for _, it := range e.poolItems(now) {
		storing := e.placeItem(topo, states)
		if len(storing) == 0 {
			continue
		}
		packed := it.Clone()
		packed.StoringNodes = storing
		bld.AddItem(packed)
		announced[packed.ID] = true
		for _, sn := range storing {
			states[sn].Used++
		}
	}

	// Block-body placement (no replica floor: recent FIFOs already cover
	// fresh blocks everywhere).
	blockNodes := e.placeBlock(topo, states)
	for _, sn := range blockNodes {
		states[sn].Used++
	}
	bld.SetStoringNodes(blockNodes)
	bld.SetPrevStoringNodes(prev.StoringNodes)

	// Recent-block allocation (Section IV-C): solve the same problem to
	// pick the nodes that grow their recent FIFO by one.
	recentNodes := e.placeBlock(topo, states)
	for _, sn := range recentNodes {
		states[sn].Used++
	}
	bld.SetRecentAssignees(recentNodes)

	// Repair (self-healing data plane): re-announce under-replicated items
	// whose providers the churn detector marked dead, placing replacement
	// replicas on alive nodes only.
	repaired := e.pickRepairs(topo, states, now, announced)
	for _, r := range repaired {
		bld.AddItem(r)
		for _, sn := range r.StoringNodes {
			states[sn].Used++
		}
	}

	blk := bld.Seal()
	if _, err := e.ch.Add(blk); err != nil {
		return nil, fmt.Errorf("engine: own block rejected: %w", err)
	}
	return &MineResult{Block: blk, Repairs: len(repaired)}, nil
}

// pickRepairs selects up to repairMaxPerBlock live items that have fallen
// under their replica floor because providers died, and returns
// re-announced clones whose storing set is the surviving providers plus
// UFL-chosen alive nodes. Suspect nodes keep their replicas counted
// (hysteresis) but receive no new ones. The cursor round-robins across
// items so every item is eventually reconsidered.
func (e *Engine) pickRepairs(topo *netsim.Topology, states []alloc.NodeState, now time.Duration, skip map[meta.DataID]bool) []*meta.Item {
	const maxPer = repairMaxPerBlock
	if e.cfg.Liveness == nil {
		return nil
	}
	ids := e.view.items.IDs()
	if len(ids) == 0 {
		return nil
	}
	// Evaluate every verdict once per block; dead AND suspect nodes are
	// masked out of placement by presenting them as full.
	verdicts := make([]repair.Status, len(states))
	masked := make([]alloc.NodeState, len(states))
	alive := 0
	for i := range states {
		verdicts[i] = e.cfg.Liveness(i)
		masked[i] = states[i]
		if verdicts[i] == repair.Alive {
			alive++
		} else {
			masked[i].Used = masked[i].Capacity
		}
	}
	if alive == 0 {
		return nil
	}
	wantFloor := e.cfg.Planner.MinReplicas
	if wantFloor > alive {
		wantFloor = alive
	}
	var out []*meta.Item
	budget := 4 * maxPer // deficiency-evaluation budget per block
	for k := 0; k < len(ids) && budget > 0 && len(out) < maxPer; k++ {
		it := e.view.items.Item(ids[(e.repairCursor+k)%len(ids)])
		if skip[it.ID] || it.Expired(now) || len(it.StoringNodes) == 0 {
			continue
		}
		survivors := make([]int, 0, len(it.StoringNodes))
		for _, sn := range it.StoringNodes {
			if sn >= 0 && sn < len(states) && verdicts[sn] != repair.Dead {
				survivors = append(survivors, sn)
			}
		}
		if len(survivors) >= wantFloor {
			continue // at or above floor counting not-dead providers
		}
		budget--
		pl, err := e.cfg.Planner.Place(topo, masked)
		if err != nil {
			continue
		}
		newSet := append([]int(nil), survivors...)
		inSet := make(map[int]bool, wantFloor)
		for _, sn := range newSet {
			inSet[sn] = true
		}
		for _, sn := range pl.StoringNodes {
			if len(newSet) >= wantFloor {
				break
			}
			if !inSet[sn] && verdicts[sn] == repair.Alive {
				inSet[sn] = true
				newSet = append(newSet, sn)
			}
		}
		if len(newSet) <= len(survivors) {
			continue // placement added nothing: re-announcing buys no replica
		}
		repairedItem := it.Clone()
		slices.Sort(newSet)
		repairedItem.StoringNodes = newSet
		out = append(out, repairedItem)
		for _, sn := range repairedItem.StoringNodes {
			masked[sn].Used++ // later repairs in this block see the load
		}
	}
	e.repairCursor += 4 * maxPer
	return out
}

// placeItem chooses storing nodes for one data item under the configured
// strategy.
func (e *Engine) placeItem(topo *netsim.Topology, states []alloc.NodeState) []int {
	optimal := e.place(e.cfg.Planner, topo, states)
	if e.cfg.RandomPlacement {
		// Baseline: same replica count, uniformly random nodes
		// (Section VI-B's "fair comparison"); with every node full it
		// overflows where the optimal placement does.
		if random := alloc.RandomPlace(states, len(optimal), e.cfg.Rand); len(random) > 0 {
			return random
		}
	}
	return optimal
}

// placeBlock runs the block planner (no replica floor).
func (e *Engine) placeBlock(topo *netsim.Topology, states []alloc.NodeState) []int {
	return e.place(e.cfg.BlockPlanner, topo, states)
}

func (e *Engine) place(p *alloc.Planner, topo *netsim.Topology, states []alloc.NodeState) []int {
	pl, err := p.Place(topo, states)
	if err != nil {
		return nil
	}
	return pl.StoringNodes
}
