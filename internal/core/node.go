package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/raft"
	"repro/internal/sim"
)

// Node is one edge device participating in the blockchain: it generates
// data, stores assigned data and blocks, and serves peer requests. All
// consensus and allocation rules live in the shared internal/engine; the
// Node is the simulation adapter supplying I/O — the discrete-event clock,
// the netsim message sink and the physical storage maps.
type Node struct {
	sys   *System
	id    int
	ident *identity.Identity
	rng   *rand.Rand

	eng *engine.Engine

	// Physical storage.
	ownData      map[meta.DataID]bool // items this node produced
	dataStore    map[meta.DataID]bool // assigned items actually fetched
	consumed     map[meta.DataID]bool // items received as a requester
	announced    map[meta.DataID]bool // items whose first announcement was acted on
	blockStore   map[uint64]bool      // assigned block bodies
	recent       *alloc.RecentCache
	pendingFetch map[meta.DataID]int // assigned items awaiting fetch: retries used

	// Mining.
	mineTimer sim.Timer

	// Outstanding data requests/fetches keyed by sequence number.
	nextSeq uint64
	pending map[uint64]*pendingRequest

	// Missing-block recovery state.
	sync *syncState
	// adopting is set while a peer's chain is being adopted: its rounds were
	// not mined through here, so onAppend charges them no mining energy.
	adopting bool

	joined bool

	// miningEnergyJ accumulates the compute energy spent mining (hash
	// work for PoW, per-second target checks for PoS), per the Fig. 6
	// energy model.
	miningEnergyJ float64

	raft *raft.Node
}

type requestKind int

const (
	reqConsume requestKind = iota + 1 // requester wants the data (Fig. 4c metric)
	reqFetch                          // storing node pulls from producer
)

type pendingRequest struct {
	kind       requestKind
	id         meta.DataID
	candidates []int
	tried      int
	start      time.Duration
	timer      sim.Timer
}

type syncState struct {
	from, to   uint64
	candidates []int
	tried      int
	timer      sim.Timer
}

func newNode(sys *System, id int, ident *identity.Identity, rng *rand.Rand) *Node {
	depth := sys.cfg.InitialRecentDepth
	if depth < 1 {
		depth = 1
	}
	n := &Node{
		sys:          sys,
		id:           id,
		ident:        ident,
		rng:          rng,
		ownData:      make(map[meta.DataID]bool),
		dataStore:    make(map[meta.DataID]bool),
		consumed:     make(map[meta.DataID]bool),
		announced:    make(map[meta.DataID]bool),
		blockStore:   make(map[uint64]bool),
		recent:       alloc.NewRecentCache(depth),
		pendingFetch: make(map[meta.DataID]int),
		pending:      make(map[uint64]*pendingRequest),
		joined:       true,
	}
	ecfg := engine.Config{
		Accounts:           sys.accounts,
		Self:               id,
		PoS:                sys.cfg.PoS,
		Genesis:            sys.genesis,
		Now:                sys.clock.Elapsed,
		ValidateClaims:     sys.cfg.Consensus != ConsensusPoW,
		StakeRescaleEvery:  sys.cfg.StakeRescaleEvery,
		CheckpointInterval: sys.cfg.CheckpointInterval,
		Topology:           sys.net.HomeTopology,
		Planner:            sys.planner,
		BlockPlanner:       sys.blockPlanner,
		StorageCapacity:    sys.cfg.StorageCapacity,
		MobilityRange:      sys.cfg.MobilityRange,
		InitialRecentDepth: depth,
		RecentDepthCap:     sys.cfg.RecentDepthCap,
		RandomPlacement:    sys.cfg.Placement == PlaceRandom,
		Rand:               rng,
		MigrateMaxPerBlock: sys.cfg.MigrateMaxPerBlock,
		MigrateCostRatio:   sys.cfg.MigrateCostRatio,
		OnAppend:           n.onAppend,
		OnDisconnect:       n.onDisconnect,
	}
	if sys.cfg.Consensus == ConsensusPoW {
		// The PoW baseline keeps the engine's append/adopt machinery but
		// swaps the round computation for exponential solve times.
		ecfg.CustomRound = n.powRound
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		// Config is validated before nodes are built; an engine rejection
		// here is a programming error.
		panic("core: engine init: " + err.Error())
	}
	n.eng = eng
	return n
}

// ID returns the node's network identifier.
func (n *Node) ID() int { return n.id }

// Address returns the node's account address.
func (n *Node) Address() identity.Address { return n.ident.Address() }

// Chain returns the node's chain replica.
func (n *Node) Chain() *chain.Chain { return n.eng.Chain() }

// Engine returns the node's consensus engine.
func (n *Node) Engine() *engine.Engine { return n.eng }

// StoredItems returns how many storage units the node really uses:
// assigned data items, assigned block bodies and the recent cache.
func (n *Node) StoredItems() int {
	return len(n.dataStore) + len(n.blockStore) + n.recent.Len()
}

// Recv implements netsim.Handler.
func (n *Node) Recv(from netsim.NodeID, msg netsim.Message) {
	if !n.joined {
		return
	}
	switch m := msg.(type) {
	case msgMetadata:
		n.handleMetadata(m.item)
	case msgBlock:
		n.handleBlock(int(from), m.blk)
	case msgDataRequest:
		n.handleDataRequest(int(from), m)
	case msgDataPull:
		n.handleDataPull(int(from), m)
	case msgDataResponse:
		n.handleDataResponse(m)
	case msgDataNack:
		n.handleDataNack(m)
	case msgBlockRangeRequest:
		n.handleBlockRangeRequest(int(from), m)
	case msgBlockRangeResponse:
		n.handleBlockRangeResponse(m)
	case msgChainRequest:
		n.handleChainRequest(int(from))
	case msgChainResponse:
		n.handleChainResponse(m)
	case msgRaft:
		if n.raft != nil {
			n.raft.Step(m.rm)
		}
	}
}

// --- metadata -----------------------------------------------------------

func (n *Node) handleMetadata(it *meta.Item) {
	n.eng.AddMetadata(it)
}

// produce creates a data item on this node, stores it locally, and
// broadcasts the signed metadata (Section IV-B).
func (n *Node) produce(seq int, typ string) *meta.Item {
	now := n.sys.clock.Elapsed()
	payload := fmt.Sprintf("data-%d-from-%d", seq, n.id)
	it := &meta.Item{
		ID:           meta.HashData([]byte(payload)),
		Type:         typ,
		Produced:     now,
		Location:     n.sys.net.Topology().Position(netsim.NodeID(n.id)),
		LocationName: fmt.Sprintf("node-%d", n.id),
		ValidFor:     n.sys.cfg.DataValidFor,
		DataSize:     n.sys.cfg.DataSize,
	}
	it.Sign(n.ident)
	n.ownData[it.ID] = true
	n.eng.AddLocal(it)
	n.sys.net.Broadcast(netsim.NodeID(n.id), msgMetadata{item: it})
	return it
}

// --- block adoption ------------------------------------------------------

// onAppend is the engine callback layering the adapter's side effects on
// every adopted block: energy accounting, the physical recent FIFO and
// block-body store, proactive fetches, consumption scheduling and
// valid-time expiry.
func (n *Node) onAppend(ev engine.AppendEvent) {
	b := ev.Block
	n.chargeMiningEnergy(b)

	// Every node pushes the block into its recent FIFO (it has the body
	// from the broadcast); assignees grow their allowance first, subject
	// to the optional growth cap (Section VII future-work expiration).
	for _, a := range b.RecentAssignees {
		if a == n.id {
			if cap := n.sys.cfg.RecentDepthCap; cap == 0 || n.recent.Depth() < cap {
				n.recent.Grow()
			}
		}
	}
	n.recent.Push(b.Index)

	// Assigned block-body storage.
	for _, sn := range b.StoringNodes {
		if sn == n.id {
			n.blockStore[b.Index] = true
		}
	}

	for _, ie := range ev.Items {
		it := ie.Item

		// Migration re-announcement (Section VII): released nodes free the
		// storage immediately.
		if !ie.First && ie.Prev != nil && !ie.AssignedToSelf && !n.ownData[it.ID] {
			delete(n.dataStore, it.ID)
			delete(n.pendingFetch, it.ID)
		}

		// Proactive fetch for assigned storing nodes (Section IV-B: "If a
		// node is chosen to be a storing node, it gets the data from the
		// producer and stores them"). Migrated items prefer the previous
		// holders as transfer sources.
		if ie.AssignedToSelf && !n.ownData[it.ID] && !n.dataStore[it.ID] {
			if _, active := n.pendingFetch[it.ID]; !active {
				n.pendingFetch[it.ID] = 0
				var preferred []int
				if ie.Prev != nil {
					preferred = ie.Prev.StoringNodes
				}
				n.startFetchFrom(it, preferred)
			}
		}

		// A fork can announce as new an item that the branch it replaces
		// had announced already; the request and the expiry timer below
		// were set up then.
		if !ie.First || n.announced[it.ID] {
			continue
		}
		n.announced[it.ID] = true

		// The workload's chosen requesters schedule a consumption request.
		if n.sys.wantedBy(it.ID, n.id) && !n.ownData[it.ID] && !n.consumed[it.ID] {
			it := it
			delay := time.Duration(n.rng.Int63n(int64(n.sys.cfg.RequestSpread) + 1))
			n.sys.clock.AfterFunc(delay, func() { n.startConsume(it) })
		}

		// Data expires: storing nodes free the storage at the valid-time
		// boundary.
		if it.ValidFor > 0 {
			id := it.ID
			n.sys.at(it.ExpiresAt(), func() {
				delete(n.dataStore, id)
				delete(n.pendingFetch, id)
				n.eng.ForgetItem(id)
			})
		}
	}
}

// handleBlock processes a block received from the network.
func (n *Node) handleBlock(from int, b *block.Block) {
	appended, err := n.eng.ReceiveBlock(b)
	switch {
	case err == nil:
		if appended > 0 {
			n.sys.stats.blocksAdopted += appended
			n.cancelSync()
			n.scheduleMining()
		}
	case isGap(err):
		// Missing blocks (Section III-C): ask for [tip+1, b.Index-1]. A
		// block too far ahead to be parked takes a full chain exchange.
		if fromIdx, to, ok := n.eng.Chain().MissingRange(); ok {
			n.startBlockRecovery(fromIdx, to, from)
		} else {
			n.requestChain(from)
		}
	case isForkLink(err):
		// Same height, different parent lineage: Naivechain-style full
		// chain exchange resolves the fork.
		n.requestChain(from)
	default:
		// Duplicate, stale or invalid: ignore.
	}
}

func isGap(err error) bool { return err != nil && errorsIs(err, chain.ErrGap) }

func isForkLink(err error) bool {
	return err != nil && (errorsIs(err, block.ErrBadLink) || errorsIs(err, block.ErrBadPoSHash))
}

// --- mining --------------------------------------------------------------

// chargeMiningEnergy accounts the compute energy this node spent during
// the round that block b closed: PoS performs one target check per second
// plus the hit hash; PoW hashes continuously at the device hash rate.
func (n *Node) chargeMiningEnergy(b *block.Block) {
	if !n.joined || n.adopting || b.Index == 0 {
		return
	}
	prev := n.eng.Chain().At(b.Index - 1)
	if prev == nil {
		return
	}
	roundSecs := (b.Timestamp - prev.Timestamp).Seconds()
	if roundSecs < 0 {
		return
	}
	var hashes float64
	if n.sys.cfg.Consensus == ConsensusPoW {
		hashes = n.sys.cfg.HashRate * roundSecs
	} else {
		hashes = roundSecs + 1
	}
	n.miningEnergyJ += n.sys.cfg.Energy.HashEnergyJoules * hashes
}

// scheduleMining arms the mining timer for the current tip. Called after
// every adoption; any previous timer is canceled (the round it was mining
// is over).
func (n *Node) scheduleMining() {
	if n.mineTimer != nil {
		n.mineTimer.Stop()
		n.mineTimer = nil
	}
	if !n.joined {
		return
	}
	r, ok := n.eng.NextRound()
	if !ok {
		return
	}
	delay := r.FireAt() - n.sys.clock.Elapsed()
	n.mineTimer = n.sys.clock.AfterFunc(delay, func() { n.mine(r) })
}

// powRound is the PoW baseline's round computation: solve times are
// exponential; derive a deterministic sample from the same hit so the run
// stays reproducible. Each node's mean is n*t0, making the expected round
// (min over nodes) t0.
func (n *Node) powRound(prev *block.Block) (uint64, float64) {
	params := n.sys.cfg.PoS
	hit := params.Hit(prev, n.ident.Address())
	u := (float64(hit) + 0.5) / float64(params.M)
	mean := params.T0.Seconds() * float64(n.sys.cfg.NumNodes)
	t := -mean * logOf(1-u)
	if t < 1 {
		t = 1
	}
	return uint64(t), 0
}

// mine runs the engine's block assembly for a won round and broadcasts
// the result (Section V-C).
func (n *Node) mine(r engine.Round) {
	if !n.joined {
		return
	}
	res, err := n.eng.Mine(r)
	if err != nil {
		// Our own block must be valid; a failure here is a programming
		// error worth surfacing loudly in simulation.
		panic(fmt.Sprintf("core: node %d rejects own block: %v", n.id, err))
	}
	if res == nil {
		return // the round moved on
	}
	n.sys.stats.blocksMined++
	n.sys.stats.migrations += res.Migrations
	n.sys.net.Broadcast(netsim.NodeID(n.id), msgBlock{blk: res.Block})
	n.scheduleMining()
}

// --- raft ----------------------------------------------------------------

// attachRaft wires the optional Raft layer (general information consensus).
func (n *Node) attachRaft(cfg raft.Config) {
	n.raft = raft.New(cfg)
}

// Raft returns the node's Raft instance, or nil.
func (n *Node) Raft() *raft.Node { return n.raft }

// logOf wraps math.Log for the deterministic PoW solve-time sample.
func logOf(x float64) float64 { return math.Log(x) }
