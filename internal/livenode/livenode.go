// Package livenode runs the edge blockchain over real TCP sockets and the
// wall clock, the way the paper's original deployment ran Node.js
// processes in Docker containers, and over the in-memory transport and the
// virtual clock, which is how every simulated run of this repository —
// the paper's figures included — drives it. All consensus and allocation
// rules — chain validation, fork choice, ledger accounting, pool packing
// and UFL placement — live in internal/engine; this package only supplies
// the I/O: a transport (package p2p), a clock, a persistence store and
// telemetry.
//
// The placement problem runs on the transport's graph: a full TCP mesh is a
// 1-hop clique, where the Fairness Degree Cost drives storing decisions,
// and a radio field (memnet over netsim.Radio) gives eq. 2's Range-Distance
// Cost its hop counts. Membership (the account roster) is fixed at genesis,
// as in the paper's private-blockchain evaluation, and all nodes share a
// genesis wall-clock epoch, standing in for synchronized clocks.
package livenode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// verifyWorkers bounds the worker pool that content-verifies sync suffixes
// in parallel (engine.Config.VerifyWorkers).
const verifyWorkers = 4

// Config configures one live node.
type Config struct {
	// Identity is this node's key pair; its address must appear in
	// Accounts.
	Identity *identity.Identity
	// Accounts is the fixed roster; index k is node ID k.
	Accounts []identity.Address
	// PoS holds the mining parameters. Live demos typically use a short
	// T0 (a few seconds).
	PoS pos.Params
	// GenesisSeed must match across the deployment.
	GenesisSeed int64
	// Epoch is the shared wall-clock zero; block timestamps are measured
	// from it. All nodes must use the same value.
	Epoch time.Time
	// ListenAddr is the TCP listen address ("127.0.0.1:0" for ephemeral).
	// Ignored when NewTransport is set.
	ListenAddr string
	// NewTransport, if set, builds the node's transport endpoint instead
	// of the default TCP one (p2p.Listen on ListenAddr). The chaos harness
	// injects internal/p2p/memnet endpoints here.
	NewTransport func(h p2p.Handler) (p2p.Transport, error)
	// Clock is the node's time source: every wall-clock read and every
	// timer goes through it. nil means sim.WallClock(); the chaos harness
	// and this package's tests inject one sim.VClock shared by all nodes and
	// advance it themselves.
	Clock sim.Clock
	// StorageCapacity is the per-node storage in items (default 250).
	StorageCapacity int
	// Store is the node's persistence backend. nil means in-memory
	// (store.NewMemStore); pass the disk-backed store.Store for a
	// node that survives restarts. The node takes ownership: Close closes
	// it. Blocks recovered by the store are replayed into the chain
	// before the node starts listening, and the normal chain-sync path
	// then catches up anything mined while the node was down.
	Store store.Backend
	// SnapshotEvery is the engine's ledger-snapshot cadence in blocks;
	// snapshots let fork suffixes adopt without a scratch replay
	// (default 32, see engine.Config.SnapshotInterval). It is also the
	// store's checkpoint cadence: every adopted block at a multiple of it is
	// checkpointed (and expired data items are pruned), so a restart
	// re-verifies at most this many blocks' signatures. The engine's
	// consensus checkpoint finality is separate (PruneDepth).
	SnapshotEvery int
	// PruneDepth, when positive, runs the finite-lifetime chain
	// (DESIGN.md §14): the engine enables checkpoint finality at this
	// interval and discards block bodies below the prune horizon, the
	// store persists the justifying snapshot plus header spine and
	// compacts WAL segments below the horizon. Steady-state memory and
	// disk become O(PruneDepth) instead of O(chain length). Zero (the
	// default) keeps every body forever. The repair plane reads the
	// engine's assignment index, which the snapshots carry, so a pruned node
	// still repairs what it was assigned below its body window.
	PruneDepth int
	// BootstrapSnapshot makes a fresh node (empty chain, empty store) ask
	// the first peer it connects to for the latest finalized state
	// snapshot and install it instead of replaying history from genesis;
	// only the live suffix above the anchor is then fetched through the
	// §10 locator sync. Any failure falls back to plain suffix sync.
	BootstrapSnapshot bool

	// RepairWorkers enables the self-healing data plane (DESIGN.md §11)
	// and bounds its concurrent repair fetches; 0 disables repair
	// entirely (no churn detector, self-audit or probes).
	RepairWorkers int
	// RepairProbeEvery is the repair tick cadence: liveness probing,
	// membership sweep and the self-audit that launches repair fetches
	// (default 2s).
	RepairProbeEvery time.Duration
	// RepairSuspectAfter is the silence after which a roster node turns
	// suspect (default 6s); RepairHysteresis is the ADDITIONAL silence
	// before a suspect counts dead and triggers re-replication
	// (default 10s).
	RepairSuspectAfter time.Duration
	RepairHysteresis   time.Duration
	// Rules, if set, edits the engine's consensus and placement rules before
	// the engine starts. The paper's baselines and ablations use it: random
	// placement (Fig. 5) and the FDC weight A (A1). Every node of a
	// deployment must apply the same rules.
	Rules func(*engine.Config)
	// OnBlock, if set, is called after each adopted block (any goroutine).
	OnBlock func(b *block.Block)
	// Telemetry, when non-nil, receives the node's runtime metrics
	// ("livenode.*": mining attempts vs. blocks won, fork adoptions,
	// chain-sync rounds, data-fetch latency, the node's own S_i/Q_i gauges) and
	// — for the default TCP transport — the p2p frame counters. Pass the
	// same registry to store.Options.Metrics to get the persistence
	// metrics alongside. nil disables collection.
	Telemetry *telemetry.Registry
}

// Node is a live blockchain node: a thin transport/clock/persistence
// adapter around the shared consensus engine.
type Node struct {
	// What a hello's binding touches comes first, in one cache line: a
	// connect storm binds every peer of every node at once, and at 256 nodes
	// those 65 280 bindings, each into a table cold in memory, are most of
	// what the hello adds to set-up.
	mu      sync.Mutex
	selfIdx int
	addrOf  []string       // roster index → transport address, "" until a hello binds it
	idxOf   map[string]int // its inverse
	repair  *repairDriver  // nil when repair is disabled
	tel     *nodeMetrics
	ready   chan struct{} // closed once the engine exists and the WAL is replayed

	cfg   Config
	net   p2p.Transport
	radio *netsim.Radio // the transport's radio field; nil on a clique
	clock sim.Clock

	eng           *engine.Engine
	store         store.Backend
	replaying     bool // WAL replay in progress: skip re-persisting/fetching
	storeErr      error
	mineTimer     sim.Timer
	closed        bool
	onData        func(id meta.DataID, content []byte)
	fetches       *fetcher[meta.DataID] // pending data fetches (fetch.go)
	sync          *syncSession          // at most one incremental sync in flight
	syncGen       uint64                // session generation, guards stale timers
	gossip        *gossipState          // block and metadata relay bookkeeping
	boot          *bootstrapState       // at most one snapshot bootstrap in flight
	bootGen       uint64                // bootstrap generation, guards stale timers
	bootHold      bool                  // fresh node: mining held for the first bootstrap attempt
	persistedSnap uint64                // newest snapshot height written to the store
}

// nodeMetrics is the node's telemetry bundle; every field is nil-safe so
// a node without a registry pays only the no-op calls.
type nodeMetrics struct {
	miningAttempts *telemetry.Counter   // mine() fired (incl. lost races)
	blocksWon      *telemetry.Counter   // own blocks sealed and adopted
	blocksAdopted  *telemetry.Counter   // live blocks appended (any miner)
	blocksReplayed *telemetry.Counter   // blocks replayed from the WAL
	forkAdoptions  *telemetry.Counter   // longer-chain replacements accepted
	dataFetchNs    *telemetry.Histogram // every data fetch but repair: request → verified content
	dataReadNs     *telemetry.Histogram // of those, consumer reads (the paper's delivery time)

	// Incremental sync (DESIGN.md §10).
	syncRounds         *telemetry.Counter   // locator probes sent
	syncBatches        *telemetry.Counter   // batches received and accepted
	syncRetries        *telemetry.Counter   // batch timeouts retried
	syncAborts         *telemetry.Counter   // sessions dropped (divergence, races, retries exhausted)
	syncFullReplays    *telemetry.Counter   // scratch replays (no snapshot at or below the fork)
	syncBlocksFetched  *telemetry.Counter   // suffix blocks received over the wire
	syncBlocksReplayed *telemetry.Counter   // own blocks replayed from a snapshot
	syncBytesFetched   *telemetry.Counter   // suffix payload bytes received
	syncVerifyParallel *telemetry.Counter   // blocks verified by the worker pool
	syncBatchBlocks    *telemetry.Histogram // blocks per accepted batch

	// Self-healing data plane (DESIGN.md §11).
	repairLaunched    *telemetry.Counter   // repair fetches the self-audit launched ("enqueued": the name bench/ reads)
	repairCompleted   *telemetry.Counter   // repair fetches finished by verified content
	repairThrottled   *telemetry.Counter   // launches and answers denied by the byte-rate budget
	repairReannounced *telemetry.Counter   // repair re-announcements packed into own blocks
	repairFetchNs     *telemetry.Histogram // launch → verified content
	underReplicated   *telemetry.Gauge     // live items below the replica floor
	deadNodes         *telemetry.Gauge     // roster nodes the detector counts dead

	// Snapshot bootstrap and chain pruning (DESIGN.md §14).
	bootRequests       *telemetry.Counter // FrameGetSnapshot probes sent
	bootChunks         *telemetry.Counter // snapshot chunks received
	bootBytes          *telemetry.Counter // snapshot payload bytes received
	bootInstalled      *telemetry.Counter // snapshots verified and installed
	bootFallbacks      *telemetry.Counter // bootstraps abandoned for suffix sync
	bootServed         *telemetry.Counter // FrameGetSnapshot requests answered
	pruneRuns          *telemetry.Counter // engine prune passes that dropped bodies
	pruneBodies        *telemetry.Counter // block bodies discarded below the horizon
	pruneHorizon       *telemetry.Gauge   // current prune horizon height
	snapshotsPersisted *telemetry.Counter // snapshot blobs written to the store

	// Block relay (DESIGN.md §13): announce/fetch, the tree push's backup.
	gossipRelays          *telemetry.Counter // adopted blocks passed on, pushed or announced
	gossipFetchesSent     *telemetry.Counter // FrameGetBlock requests issued
	gossipFetchesServed   *telemetry.Counter // FrameGetBlock requests answered
	gossipFetchTimeouts   *telemetry.Counter // fetches that fell back to the locator path
	gossipDupSuppressed   *telemetry.Counter // announces dropped as already seen/adopted
	gossipStaleSuppressed *telemetry.Counter // announces at or below our tip
	compactRebuilt        *telemetry.Counter // compact bodies rebuilt from held items
	compactItemsMissing   *telemetry.Counter // referenced items requested from the announcer
	compactFallbacks      *telemetry.Counter // compact fetches that ended on the locator path

	// Metadata relay (DESIGN.md §15.1): what a block's miss or an announce fetches.
	metaRelays          *telemetry.Counter // pooled items passed on, pushed or announced
	metaFetchesSent     *telemetry.Counter // IDs requested via FrameGetMeta
	metaFetchesServed   *telemetry.Counter // pool items served to FrameGetMeta
	metaFetchTimeouts   *telemetry.Counter // pending fetches dropped unanswered
	metaFetchDropped    *telemetry.Counter // announces dropped: pending table full
	metaDupSuppressed   *telemetry.Counter // announced IDs already known or being fetched
	metaRefetchedHeld   *telemetry.Counter // fetched items pool or chain already held: metaKnown evicted them
	metaShortUnresolved *telemetry.Counter // short IDs asked of this node that metaKnown no longer names
	// The tree relay under both planes (DESIGN.md §13, §15.1).
	relayPushed    *telemetry.Counter // bodies pushed to a tree neighbour
	relayDupBodies *telemetry.Counter // bodies received that were already held, seen or parked
	relayLazyIDs   *telemetry.Counter // block announces sent behind a push (the metadata plane has none)
	relayRouted    *telemetry.Counter // tree neighbours a push could not reach, whose own neighbours it sent to instead
	relayFallbacks *telemetry.Counter // fetched bodies and synced tips announced at once, to a full fan-out sample
	relayStale     *telemetry.Counter // stale pool items announced again on a block adoption

	// Sampled liveness probing (DESIGN.md §15).
	probesSent        *telemetry.Counter // FrameRepairProbe sends
	probeAcks         *telemetry.Counter // FrameRepairProbeAck replies sent
	probeDigestMerged *telemetry.Counter // third-party digest entries applied

	// Wire-byte split, counted at the sender across all app frames.
	// Block-propagation bytes (compact body + announce + get-block) are
	// additionally tallied in wireBlockBytes, and announce frames alone in
	// wireAnnounceBytes, so the wire gates can read the propagation path in
	// isolation.
	wireConsensusBytes *telemetry.Counter
	wireDataBytes      *telemetry.Counter
	wireRepairBytes    *telemetry.Counter
	wireBlockBytes     *telemetry.Counter
	wireAnnounceBytes  *telemetry.Counter
	wireSnapshotBytes  *telemetry.Counter // snapshot request/chunk frames alone
	wireMetaBytes      *telemetry.Counter // metadata propagation (FrameMeta + announce + get-meta)
	wireHeartbeatBytes *telemetry.Counter // liveness traffic (probe + ack)

	// Verified-signature cache (DESIGN.md §16): the engine counts, and
	// updateChainGauges publishes the increase since it last ran.
	sigCacheHits   *telemetry.Counter // signature checks answered by the cache
	sigCacheMisses *telemetry.Counter // signature checks that ran ed25519
	sigKeysTabled  *telemetry.Counter // producer-key tables built ("Verify fast")
	sigFirstChecks *telemetry.Counter // misses verified without tables; the rest used them
	sigTablesHeld  *telemetry.Gauge   // producer-key tables held now
	sigHitsSeen    uint64
	sigMissesSeen  uint64
	sigTabledSeen  uint64
	sigFirstSeen   uint64

	// Directed data fetch (DESIGN.md §11.1).
	fetchDirected      *telemetry.Counter // requests sent to one candidate holder
	fetchNextCandidate *telemetry.Counter // of those, sent after an earlier candidate failed
	rosterBound        *telemetry.Gauge   // roster nodes with a known transport address

	height *telemetry.Gauge
	ownS   *telemetry.Gauge // this node's stake S_i
	ownQ   *telemetry.Gauge // this node's storage credit Q_i
	events *telemetry.Ring
}

func newNodeMetrics(reg *telemetry.Registry) *nodeMetrics {
	return &nodeMetrics{
		miningAttempts: reg.Counter("livenode.mining.attempts"),
		blocksWon:      reg.Counter("livenode.mining.blocks_won"),
		blocksAdopted:  reg.Counter("livenode.blocks.adopted"),
		blocksReplayed: reg.Counter("livenode.blocks.replayed"),
		forkAdoptions:  reg.Counter("livenode.fork.adoptions"),
		dataFetchNs:    reg.Histogram("livenode.data.fetch_ns"),
		dataReadNs:     reg.Histogram("livenode.data.read_ns"),
		height:         reg.Gauge("livenode.height"),
		ownS:           reg.Gauge("livenode.ledger.s"),
		ownQ:           reg.Gauge("livenode.ledger.q"),
		events:         reg.Events(),

		syncRounds:         reg.Counter("livenode.sync.rounds"),
		syncBatches:        reg.Counter("livenode.sync.batches"),
		syncRetries:        reg.Counter("livenode.sync.retries"),
		syncAborts:         reg.Counter("livenode.sync.aborts"),
		syncFullReplays:    reg.Counter("livenode.sync.full_replays"),
		syncBlocksFetched:  reg.Counter("livenode.sync.blocks_fetched"),
		syncBlocksReplayed: reg.Counter("livenode.sync.blocks_replayed"),
		syncBytesFetched:   reg.Counter("livenode.sync.bytes_fetched"),
		syncVerifyParallel: reg.Counter("livenode.sync.verify_parallel"),
		syncBatchBlocks:    reg.Histogram("livenode.sync.batch_blocks"),

		fetchDirected:      reg.Counter("livenode.fetch.directed"),
		fetchNextCandidate: reg.Counter("livenode.fetch.next_candidate"),
		rosterBound:        reg.Gauge("livenode.roster.bound"),

		sigCacheHits:   reg.Counter("livenode.sigcache.hits"),
		sigCacheMisses: reg.Counter("livenode.sigcache.misses"),
		sigKeysTabled:  reg.Counter("livenode.sigcache.keys_tabled"),
		sigFirstChecks: reg.Counter("livenode.sigcache.first_checks"),
		sigTablesHeld:  reg.Gauge("livenode.sigcache.tables_held"),

		repairLaunched:    reg.Counter("livenode.repair.enqueued"),
		repairCompleted:   reg.Counter("livenode.repair.completed"),
		repairThrottled:   reg.Counter("livenode.repair.throttled"),
		repairReannounced: reg.Counter("livenode.repair.reannounced"),
		repairFetchNs:     reg.Histogram("livenode.repair.fetch_ns"),
		underReplicated:   reg.Gauge("livenode.repair.under_replicated"),
		deadNodes:         reg.Gauge("livenode.repair.dead_nodes"),

		bootRequests:       reg.Counter("livenode.bootstrap.requests"),
		bootChunks:         reg.Counter("livenode.bootstrap.chunks"),
		bootBytes:          reg.Counter("livenode.bootstrap.bytes"),
		bootInstalled:      reg.Counter("livenode.bootstrap.installed"),
		bootFallbacks:      reg.Counter("livenode.bootstrap.fallbacks"),
		bootServed:         reg.Counter("livenode.bootstrap.served"),
		pruneRuns:          reg.Counter("livenode.prune.runs"),
		pruneBodies:        reg.Counter("livenode.prune.bodies"),
		pruneHorizon:       reg.Gauge("livenode.prune.horizon"),
		snapshotsPersisted: reg.Counter("livenode.prune.snapshots_persisted"),

		gossipRelays:          reg.Counter("livenode.gossip.relays"),
		gossipFetchesSent:     reg.Counter("livenode.gossip.fetches_sent"),
		gossipFetchesServed:   reg.Counter("livenode.gossip.fetches_served"),
		gossipFetchTimeouts:   reg.Counter("livenode.gossip.fetch_timeouts"),
		gossipDupSuppressed:   reg.Counter("livenode.gossip.dup_suppressed"),
		gossipStaleSuppressed: reg.Counter("livenode.gossip.stale_suppressed"),
		compactRebuilt:        reg.Counter("livenode.gossip.compact_rebuilt"),
		compactItemsMissing:   reg.Counter("livenode.gossip.compact_items_missing"),
		compactFallbacks:      reg.Counter("livenode.gossip.compact_fallbacks"),

		metaRelays:          reg.Counter("livenode.metagossip.relays"),
		metaFetchesSent:     reg.Counter("livenode.metagossip.fetches_sent"),
		metaFetchesServed:   reg.Counter("livenode.metagossip.fetches_served"),
		metaFetchTimeouts:   reg.Counter("livenode.metagossip.fetch_timeouts"),
		metaFetchDropped:    reg.Counter("livenode.metagossip.fetch_dropped"),
		metaDupSuppressed:   reg.Counter("livenode.metagossip.dup_suppressed"),
		metaRefetchedHeld:   reg.Counter("livenode.metagossip.refetched_held"),
		metaShortUnresolved: reg.Counter("livenode.metagossip.short_unresolved"),
		relayPushed:         reg.Counter("livenode.relay.pushed"),
		relayDupBodies:      reg.Counter("livenode.relay.dup_bodies"),
		relayLazyIDs:        reg.Counter("livenode.relay.lazy_ids"),
		relayRouted:         reg.Counter("livenode.relay.routed_around"),
		relayFallbacks:      reg.Counter("livenode.relay.fallback_announces"),
		relayStale:          reg.Counter("livenode.relay.stale_reannounced"),

		probesSent:        reg.Counter("livenode.probe.sent"),
		probeAcks:         reg.Counter("livenode.probe.acks"),
		probeDigestMerged: reg.Counter("livenode.probe.digest_merged"),

		wireConsensusBytes: reg.Counter("livenode.wire.consensus_bytes"),
		wireDataBytes:      reg.Counter("livenode.wire.data_bytes"),
		wireRepairBytes:    reg.Counter("livenode.wire.repair_bytes"),
		wireBlockBytes:     reg.Counter("livenode.wire.block_bytes"),
		wireAnnounceBytes:  reg.Counter("livenode.wire.announce_bytes"),
		wireSnapshotBytes:  reg.Counter("livenode.wire.snapshot_bytes"),
		wireMetaBytes:      reg.Counter("livenode.wire.meta_bytes"),
		wireHeartbeatBytes: reg.Counter("livenode.wire.heartbeat_bytes"),
	}
}

// updateChainGauges refreshes height, the node's own S_i/Q_i gauges and the
// signature-cache counters (n.mu held).
func (n *Node) updateChainGauges() {
	n.tel.height.Set(int64(n.eng.Height()))
	hits, misses := n.eng.SigCacheStats()
	n.tel.sigCacheHits.Add(int(hits - n.tel.sigHitsSeen))
	n.tel.sigCacheMisses.Add(int(misses - n.tel.sigMissesSeen))
	n.tel.sigHitsSeen, n.tel.sigMissesSeen = hits, misses
	built, held := n.eng.SigKeyTables()
	n.tel.sigKeysTabled.Add(int(built - n.tel.sigTabledSeen))
	n.tel.sigTabledSeen = built
	first := n.eng.SigFirstChecks()
	n.tel.sigFirstChecks.Add(int(first - n.tel.sigFirstSeen))
	n.tel.sigFirstSeen = first
	n.tel.sigTablesHeld.Set(int64(held))
	led := n.eng.Ledger()
	n.tel.ownS.Set(int64(led.S(n.selfIdx)))
	n.tel.ownQ.Set(int64(led.Q(n.selfIdx)))
}

// New starts a node listening on cfg.ListenAddr.
func New(cfg Config) (*Node, error) {
	if cfg.Identity == nil {
		return nil, errors.New("livenode: missing identity")
	}
	if err := cfg.PoS.Validate(); err != nil {
		return nil, err
	}
	if cfg.StorageCapacity == 0 {
		cfg.StorageCapacity = 250
	}
	if cfg.Store == nil {
		cfg.Store = store.NewMemStore()
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 32
	}
	if cfg.PruneDepth < 0 {
		cfg.PruneDepth = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = sim.WallClock()
	}
	if cfg.RepairWorkers > 0 {
		if cfg.RepairProbeEvery <= 0 {
			cfg.RepairProbeEvery = defaultRepairProbeEvery
		}
		if cfg.RepairSuspectAfter <= 0 {
			cfg.RepairSuspectAfter = defaultRepairSuspect
		}
		if cfg.RepairHysteresis <= 0 {
			cfg.RepairHysteresis = defaultRepairHysteresis
		}
	}
	if cfg.NewTransport == nil {
		cfg.NewTransport = func(h p2p.Handler) (p2p.Transport, error) {
			return p2p.Listen(cfg.ListenAddr, h)
		}
	}
	selfIdx := -1
	for i, a := range cfg.Accounts {
		if a == cfg.Identity.Address() {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, errors.New("livenode: identity not in account roster")
	}
	n := &Node{
		cfg:     cfg,
		selfIdx: selfIdx,
		clock:   cfg.Clock,
		store:   cfg.Store,
		addrOf:  make([]string, len(cfg.Accounts)),
		idxOf:   make(map[string]int, len(cfg.Accounts)),
		tel:     newNodeMetrics(cfg.Telemetry),
	}
	n.fetches = n.newDataFetcher()
	// Seed the sampling RNG from deployment-shared state plus our own
	// roster index: deterministic per node, distinct across nodes, so
	// virtual-clock chaos runs replay bit-identically.
	n.gossip = n.newGossipState(cfg.GenesisSeed ^ (int64(selfIdx+1) * 0x9E3779B9))

	// The repair driver must exist before the engine: the engine's
	// Liveness callback reads its churn detector during Mine (under n.mu).
	n.repair = n.initRepair()
	var liveness func(int) repair.Status
	if n.repair != nil {
		liveness = func(i int) repair.Status { return n.repair.det.Status(i, n.now()) }
	}

	// The transport comes first because its graph is the one placement plans
	// on. A TCP peer that dials in before the engine exists has its hello
	// bound at once, and its frames wait at ready.
	n.ready = make(chan struct{})
	transport, err := cfg.NewTransport((*linkHandler)(n))
	if err != nil {
		return nil, err
	}
	n.net = transport
	// The default TCP transport gets the p2p frame counters; custom
	// transports (memnet) wire their own metrics at the network level.
	if tn, ok := transport.(*p2p.Node); ok && cfg.Telemetry != nil {
		tn.SetMetrics(p2p.NewMetrics(cfg.Telemetry))
	}

	// Clique topology: every pair 1 hop (full TCP mesh). NewClique keeps
	// this O(n) — the position-based constructor would burn O(n²) memory
	// and an O(n³) BFS in every node stack, minutes of setup at 1000
	// nodes before the first frame ever flowed. A radio transport plans on
	// its home graph instead, with the mobility terms of eq. 2.
	topo, commRange, mobility := netsim.NewClique(len(cfg.Accounts)), 1.0, 0.0
	if rt, ok := transport.(interface{ Radio() *netsim.Radio }); ok && rt.Radio() != nil {
		n.radio = rt.Radio()
		topo, commRange, mobility = n.radio.Home(), n.radio.CommRange(), n.radio.MobilityRange()
	}
	blockPlanner := alloc.NewPlanner(commRange)
	blockPlanner.MinReplicas = 1
	ecfg := engine.Config{
		Accounts:         cfg.Accounts,
		Self:             selfIdx,
		PoS:              cfg.PoS,
		Genesis:          block.Genesis(cfg.GenesisSeed),
		Now:              n.now,
		Topology:         func() *netsim.Topology { return topo },
		Planner:          alloc.NewPlanner(commRange),
		BlockPlanner:     blockPlanner,
		StorageCapacity:  cfg.StorageCapacity,
		MobilityRange:    mobility,
		SnapshotInterval: cfg.SnapshotEvery,
		PruneDepth:       cfg.PruneDepth,
		OnPrune:          n.onPrune,
		VerifyWorkers:    verifyWorkers,
		Liveness:         liveness,
		OnAppend:         n.onAppend,
		OnDisconnect:     n.onDisconnect,
	}
	if cfg.Rules != nil {
		cfg.Rules(&ecfg)
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		close(n.ready)
		transport.Close()
		return nil, err
	}
	n.eng = eng

	// Crash recovery: replay blocks the store persisted in earlier runs
	// before taking frames. Everything mined while this node was down is
	// then caught up by the locator sync Connect starts (DESIGN.md §10).
	n.replayRecovered()
	close(n.ready)

	n.mu.Lock()
	// A fresh node configured for snapshot bootstrap must not mine before
	// its first Connect: sealing even one local block makes the engine
	// non-fresh, which forfeits the bootstrap and — against a peer that
	// has pruned the fork point — leaves the two chains permanently
	// split. Mining is released by the first bootstrap attempt, by any
	// block adoption, or by a grace deadline if no peer ever answers.
	if cfg.BootstrapSnapshot && n.eng.Height() == 0 {
		n.bootHold = true
		n.clock.AfterFunc(bootstrapTimeout, func() {
			n.mu.Lock()
			if n.bootHold && n.boot == nil && !n.closed {
				n.bootHold = false
				n.scheduleMiningLocked()
			}
			n.mu.Unlock()
		})
	}
	n.scheduleMiningLocked()
	n.scheduleRepairLocked()
	n.mu.Unlock()
	return n, nil
}

// linkHandler is the node's p2p.Greeter: every link introduces its two ends
// once, the hello being the roster index as a uvarint, and the hellos fill
// the roster ↔ address table. It is the node itself, so a transport that
// calls it reaches the node's fields without a hop through a copy.
type linkHandler Node

func (h *linkHandler) HandleFrame(from string, ft byte, payload []byte) {
	n := (*Node)(h)
	<-n.ready
	if n.eng != nil {
		n.handleFrame(from, ft, payload)
	}
}

func (h *linkHandler) Hello() []byte { return binary.AppendUvarint(nil, uint64(h.selfIdx)) }

func (h *linkHandler) HandleHello(from string, hello []byte) { (*Node)(h).handleHello(from, hello) }

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.net.Addr() }

// Connect dials every address and probes the chains of a gossipFanout-bounded
// sample of the peers that answered with a block locator; any of those that
// is ahead answers with the header range of the missing suffix (incremental
// sync, DESIGN.md §10). If the whole sample is behind too, the next block
// announce from anyone ahead opens the round instead. A failed dial does not
// stop the rest: the error joins one line per address that could not be
// reached.
func (n *Node) Connect(addrs ...string) error {
	var errs []error
	peers := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if err := n.net.Connect(a); err != nil {
			errs = append(errs, fmt.Errorf("livenode: connect %s: %w", a, err))
			continue
		}
		peers = append(peers, a)
	}
	// A fresh node configured for snapshot bootstrap asks its first peer
	// for the finalized state instead of syncing history from genesis
	// (DESIGN.md §14); the locator probe runs once the snapshot is
	// installed (or the attempt falls back).
	if !(n.cfg.BootstrapSnapshot && len(peers) > 0 && n.beginBootstrap(peers[0])) {
		sort.Strings(peers) // the sampler draws from a sorted list, and this one is ours, not a transport snapshot
		n.sendSyncLocator(n.sampleOf(peers, "", gossipFanout)...)
	}
	return errors.Join(errs...)
}

// Height returns the chain height.
func (n *Node) Height() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Height()
}

// Tip returns the current tip block.
func (n *Node) Tip() *block.Block {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Tip()
}

// HasData reports whether the node holds the content for id.
func (n *Node) HasData(id meta.DataID) bool {
	return n.store.HasData(id)
}

// StoreErr returns the first persistence error the node swallowed while
// adopting blocks (nil when the store is healthy). The chain replica
// stays authoritative in memory either way; a non-nil value means the
// next restart may recover a shorter chain than the live height.
func (n *Node) StoreErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.storeErr
}

// BlockHashAt returns the hash of the block at height h, if known.
func (n *Node) BlockHashAt(h uint64) (block.Hash, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	b := n.eng.Chain().At(h)
	if b == nil {
		return block.Hash{}, false
	}
	return b.Hash, true
}

// HeaderHashAt returns the hash of the header at height h, if the spine
// still covers it. Unlike BlockHashAt it keeps answering for heights whose
// bodies a pruning node has discarded.
func (n *Node) HeaderHashAt(h uint64) (block.Hash, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	hdr, ok := n.eng.Chain().HeaderAt(h)
	if !ok {
		return block.Hash{}, false
	}
	return hdr.Hash, true
}

// BodyBase returns the lowest height whose full block body this node still
// retains (0 on an unpruned node).
func (n *Node) BodyBase() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Chain().BodyBase()
}

// PoolIDs returns the IDs of every metadata item currently in the node's
// consensus pool (unordered). The §15.1 pool-convergence test digests each
// node's chain ∪ pool item set.
func (n *Node) PoolIDs() []meta.DataID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.PoolIDs()
}

// HasItemOnChain reports whether an item with the given ID is on chain and
// unexpired in the node's chain replica.
func (n *Node) HasItemOnChain(id meta.DataID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.OnChain(id)
}

// SetOnData installs (or replaces) the data-arrival callback; content is a
// view into the received frame, which the callback must not modify.
func (n *Node) SetOnData(fn func(id meta.DataID, content []byte)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onData = fn
}

// stop marks the node closed, stops every timer it owns — mining, repair
// tick, sync session, bootstrap, pending fetches — and closes the transport.
// It returns the tip at that moment.
func (n *Node) stop() (tip *block.Block, netErr error) {
	n.mu.Lock()
	n.closed = true
	if n.mineTimer != nil {
		n.mineTimer.Stop()
	}
	if n.repair != nil && n.repair.timer != nil {
		n.repair.timer.Stop()
	}
	n.clearSyncLocked()
	n.clearBootstrapLocked()
	n.clearFetchesLocked()
	tip = n.eng.Tip()
	n.mu.Unlock()
	return tip, n.net.Close()
}

// Close stops mining and networking, checkpoints the store and closes it.
func (n *Node) Close() error {
	tip, netErr := n.stop()
	_ = n.store.Checkpoint(tip.Index, tip.Hash)
	if err := n.store.Close(); err != nil && netErr == nil {
		netErr = err
	}
	return netErr
}

// Kill simulates a crash: mining and networking stop immediately and the
// store is released without the final checkpoint Close would write, so a
// restart from the same data directory exercises the WAL recovery path
// rather than the clean-shutdown path. The chaos harness uses it for
// crash/restart scenarios.
func (n *Node) Kill() error {
	_, netErr := n.stop()
	if err := n.store.Close(); err != nil && netErr == nil {
		netErr = err
	}
	return netErr
}

// ChainSnapshot returns a copy of the node's chain replica (genesis
// first). The blocks themselves are shared and must not be mutated.
func (n *Node) ChainSnapshot() []*block.Block {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eng.Chain().Blocks()
}

// LedgerStats returns every roster node's stake S_i and storage credit
// Q_i as derived from this node's chain replica. Index k is node ID k.
func (n *Node) LedgerStats() (s, q []uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	led := n.eng.Ledger()
	s = make([]uint64, led.N())
	q = make([]uint64, led.N())
	for i := range s {
		s[i] = led.S(i)
		q[i] = led.Q(i)
	}
	return s, q
}

// StorageUsed returns the chain-derived per-node storage usage this node's
// placement view assumes at its tip (unexpired data items, block bodies
// and recent-cache slots).
func (n *Node) StorageUsed() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]int, len(n.cfg.Accounts))
	for i := range out {
		out[i] = n.eng.View().Used(i)
	}
	return out
}

// now returns the current time as an offset from the shared epoch.
func (n *Node) now() time.Duration { return n.clock.Now().Sub(n.cfg.Epoch) }

// Publish creates a data item from content, stores it locally, and pushes
// the signed metadata to this node's tree neighbours for its ID; peers pass
// it on along the tree on first admission (DESIGN.md §15.1).
func (n *Node) Publish(content []byte, typ, locationName string) (*meta.Item, error) {
	it := &meta.Item{
		ID:           meta.HashData(content),
		Type:         typ,
		Produced:     n.now(),
		LocationName: locationName,
		DataSize:     len(content),
	}
	it.Sign(n.cfg.Identity)
	if err := n.store.PutData(it.ID, content); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.eng.AddLocal(it)
	n.gossip.metaKnown.Add(it.ID.ShortID(), it.ID)
	n.gossip.own = append(n.gossip.own, it.ID)
	n.mu.Unlock()
	n.relayMeta(it.ID, it.Encode(), "", false)
	return it, nil
}
