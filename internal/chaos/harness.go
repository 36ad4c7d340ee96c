// Package chaos is the deterministic fault-injection test harness for the
// live edge-blockchain node. It drives N livenode instances over the
// in-memory fault-injecting transport (internal/p2p/memnet) and a shared
// virtual clock, so scripted and randomized schedules — partition/heal
// cycles, node crash + WAL restart, concurrent miners forcing forks,
// lossy/reordering links — run single-threaded, wall-clock-free, and
// exactly reproducibly: the same seed yields the same faultnet event log.
// After each schedule the harness checks the safety and convergence
// invariants of the paper's deployment (Section V): single-chain
// convergence, end-to-end PoS claim validity, common-prefix stability
// across heals, and chain-derived Q_i/storage accounting.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// VClock and NewVClock are the virtual clock of internal/sim under the
// names the benchmark harness (bench/, a module of its own) calls it by.
type VClock = sim.VClock

func NewVClock(start time.Time) *VClock { return sim.NewVClock(start) }

// Options configure a chaos cluster.
type Options struct {
	// N is the roster size (required, > 0).
	N int
	// Seed drives everything random in the run: roster key pairs and the
	// fault network's RNG. Same options + same schedule ⇒ same event log.
	Seed int64
	// T0 is the expected block interval (default 5s — virtual seconds are
	// free).
	T0 time.Duration
	// Faults are the initial default link fault parameters (zero value =
	// perfect instant network).
	Faults memnet.Params
	// DataDirs, when non-nil, gives per-node store directories; "" keeps
	// that node in-memory. Nodes with a directory survive Crash/Restart
	// with their WAL.
	DataDirs []string
	// StorageCapacity is the per-node storage in items (0 = livenode
	// default).
	StorageCapacity int
	// SnapshotEvery is the engine ledger-snapshot cadence in blocks (0 =
	// livenode default). Forks no deeper than this resolve without a
	// scratch replay.
	SnapshotEvery int
	// GenesisSeed overrides the fixed default genesis seed (0 = default).
	GenesisSeed int64
	// RepairWorkers enables the self-healing data plane on every node with
	// that many concurrent fetches (0 = repair disabled, the default).
	RepairWorkers int
	// RepairProbeEvery is the liveness-probe and repair-pump cadence (0 =
	// livenode default).
	RepairProbeEvery time.Duration
	// RepairSuspectAfter is the silence before a peer turns suspect, and
	// RepairHysteresis the additional silence before suspect turns dead (0
	// = livenode defaults).
	RepairSuspectAfter time.Duration
	RepairHysteresis   time.Duration
	// PruneDepth, when positive, runs the finite-lifetime chain on the
	// nodes selected by PruneNodes: bodies below the snapshot-covered
	// checkpoint horizon are discarded and only the header spine kept
	// (livenode.Config.PruneDepth).
	PruneDepth int
	// PruneNodes lists the roster indices that prune (nil = every node
	// when PruneDepth > 0). A mix of pruned and archival nodes in one
	// cluster is the interesting case: forks, sync and restarts must work
	// across both replica shapes.
	PruneNodes []int
	// Radio, when set, puts the nodes on a multi-hop radio field (radio
	// node k is roster node k): frames take its hop latency, placement
	// plans on its graph, and a timer steps its mobility every epoch. nil
	// keeps the one-hop clique.
	Radio *netsim.Radio
	// Rules is passed through to livenode.Config.Rules on every node.
	Rules func(*engine.Config)
}

// prunes reports whether node i runs with a prune horizon.
func (o Options) prunes(i int) bool {
	if o.PruneDepth <= 0 {
		return false
	}
	if o.PruneNodes == nil {
		return true
	}
	for _, p := range o.PruneNodes {
		if p == i {
			return true
		}
	}
	return false
}

// Cluster is N live nodes on one fault-injecting in-memory network and one
// shared virtual clock. All methods must be called from a single
// goroutine (the test).
type Cluster struct {
	opts     Options
	params   pos.Params
	Epoch    time.Time
	Clock    *VClock
	Net      *memnet.Network
	idents   []*identity.Identity
	accounts []identity.Address
	nodes    []*livenode.Node // nil while crashed

	// rng drives fault-side random choices (like picking churn victims),
	// separately from the network's RNG so adding a kill does not perturb
	// message-level fault decisions that came before it.
	rng *rand.Rand

	// Telemetry registries persist across Crash/Restart so counters
	// accumulate over a node's whole lifetime, not one incarnation.
	netReg   *telemetry.Registry
	nodeRegs []*telemetry.Registry
}

// GenesisSeed is the default genesis seed chaos clusters share
// (Options.GenesisSeed overrides it).
const GenesisSeed = 42

// Addr returns node i's symbolic transport address.
func Addr(i int) string { return fmt.Sprintf("node%02d", i) }

// NewCluster builds and starts the cluster; nodes are live but not yet
// connected (call ConnectAll or Connect).
func NewCluster(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		return nil, fmt.Errorf("chaos: cluster needs N > 0")
	}
	if opts.T0 <= 0 {
		opts.T0 = 5 * time.Second
	}
	if opts.DataDirs != nil && len(opts.DataDirs) != opts.N {
		return nil, fmt.Errorf("chaos: %d data dirs for %d nodes", len(opts.DataDirs), opts.N)
	}
	if opts.GenesisSeed == 0 {
		opts.GenesisSeed = GenesisSeed
	}
	epoch := time.Unix(1700000000, 0) // fixed: virtual time is relative anyway
	c := &Cluster{
		opts:   opts,
		params: pos.Params{M: pos.DefaultM, T0: opts.T0},
		Epoch:  epoch,
		Clock:  NewVClock(epoch),
	}
	c.rng = rand.New(rand.NewSource(opts.Seed*31 + 7))
	c.Net = memnet.New(opts.Seed, c.Clock.Now)
	c.Net.SetDefaults(opts.Faults)
	c.netReg = telemetry.NewRegistry()
	c.Net.SetMetrics(memnet.NewMetrics(c.netReg))
	if r := opts.Radio; r != nil {
		addrs := make([]string, opts.N)
		for i := range addrs {
			addrs[i] = Addr(i)
		}
		c.Net.SetRadio(r, addrs)
		if r.MobilityEpoch() > 0 {
			sim.Every(c.Clock, r.MobilityEpoch(), func() bool { r.Step(); return true })
		}
	}
	c.nodeRegs = make([]*telemetry.Registry, opts.N)
	for i := range c.nodeRegs {
		c.nodeRegs[i] = telemetry.NewRegistry()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	c.idents = make([]*identity.Identity, opts.N)
	c.accounts = make([]identity.Address, opts.N)
	for i := range c.idents {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
	}
	c.nodes = make([]*livenode.Node, opts.N)
	for i := range c.nodes {
		if err := c.startNode(i); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) startNode(i int) error {
	var st store.Backend
	if c.opts.DataDirs != nil && c.opts.DataDirs[i] != "" {
		s, err := store.Open(c.opts.DataDirs[i], store.Options{
			Sync:    store.SyncAlways,
			Metrics: store.NewMetrics(c.nodeRegs[i]),
		})
		if err != nil {
			return fmt.Errorf("chaos: open store %d: %w", i, err)
		}
		st = s
	}
	pruneDepth := 0
	if c.opts.prunes(i) {
		pruneDepth = c.opts.PruneDepth
	}
	node, err := livenode.New(livenode.Config{
		Identity:        c.idents[i],
		Accounts:        c.accounts,
		PoS:             c.params,
		GenesisSeed:     c.opts.GenesisSeed,
		Epoch:           c.Epoch,
		Clock:           c.Clock,
		NewTransport:    func(h p2p.Handler) (p2p.Transport, error) { return c.Net.Listen(Addr(i), h) },
		Store:           st,
		StorageCapacity: c.opts.StorageCapacity,
		SnapshotEvery:   c.opts.SnapshotEvery,
		Telemetry:       c.nodeRegs[i],
		PruneDepth:      pruneDepth,

		RepairWorkers:      c.opts.RepairWorkers,
		RepairProbeEvery:   c.opts.RepairProbeEvery,
		RepairSuspectAfter: c.opts.RepairSuspectAfter,
		RepairHysteresis:   c.opts.RepairHysteresis,
		Rules:              c.opts.Rules,
	})
	if err != nil {
		return fmt.Errorf("chaos: start node %d: %w", i, err)
	}
	c.nodes[i] = node
	return nil
}

// Node returns node i (nil while crashed).
func (c *Cluster) Node(i int) *livenode.Node { return c.nodes[i] }

// NodeTelemetry returns node i's telemetry registry. The registry outlives
// crashes: counters keep accumulating across Restart.
func (c *Cluster) NodeTelemetry(i int) *telemetry.Registry { return c.nodeRegs[i] }

// NetTelemetry returns the fault network's telemetry registry.
func (c *Cluster) NetTelemetry() *telemetry.Registry { return c.netReg }

// TelemetrySummary renders the network counters and each node's counters
// and gauges as one human-readable block — attached to invariant failures
// so a broken run carries its own postmortem numbers.
func (c *Cluster) TelemetrySummary() string {
	var b strings.Builder
	writeCounters := func(label string, snap telemetry.Snapshot) {
		names := make([]string, 0, len(snap.Counters))
		for name := range snap.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, "%s:", label)
		for _, name := range names {
			fmt.Fprintf(&b, " %s=%d", name, snap.Counters[name])
		}
		b.WriteByte('\n')
	}
	writeCounters("net", c.netReg.Snapshot())
	for i, reg := range c.nodeRegs {
		writeCounters(fmt.Sprintf("node%02d", i), reg.Snapshot())
	}
	return b.String()
}

// Nodes returns the live nodes.
func (c *Cluster) Nodes() []*livenode.Node {
	out := make([]*livenode.Node, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Accounts returns the fixed roster.
func (c *Cluster) Accounts() []identity.Address { return c.accounts }

// Params returns the cluster's PoS parameters.
func (c *Cluster) Params() pos.Params { return c.params }

// ConnectAll links every live node pair. Each node dials all its
// higher-indexed peers in one batched Connect call (memnet links are
// symmetric), so the whole mesh costs one sync round per node — a locator
// probe to a fan-out sample of those peers — and no virtual time passes.
func (c *Cluster) ConnectAll() error {
	var live []*livenode.Node
	var addrs []string // live[k]'s address is addrs[k]
	for i, a := range c.nodes {
		if a != nil {
			live, addrs = append(live, a), append(addrs, Addr(i))
		}
	}
	for k, a := range live[:max(len(live)-1, 0)] {
		if err := a.Connect(addrs[k+1:]...); err != nil {
			return err
		}
	}
	return nil
}

// Crash kills node i mid-flight: mining stops, the transport detaches and
// the store is released without a checkpoint (WAL recovery on restart).
func (c *Cluster) Crash(i int) error {
	n := c.nodes[i]
	if n == nil {
		return fmt.Errorf("chaos: node %d already down", i)
	}
	c.nodes[i] = nil
	return n.Kill()
}

// KillStoringNodes crashes roughly frac of the live nodes currently
// assigned at least one unexpired item, with each candidate's chance of
// being picked weighted by how many items it stores — churn hits the data
// plane where it hurts most. Stored-item counts come from a provider index
// rebuilt off the first live node's chain, the same chain-only derivation
// the repair subsystem itself uses. Nodes listed in protect are never
// killed (keep producers up so content stays re-fetchable). Victim choice draws on the cluster's fault RNG, so a
// fixed seed always kills the same nodes. Returns the killed roster
// indices, ascending.
func (c *Cluster) KillStoringNodes(frac float64, protect ...int) ([]int, error) {
	var ref *livenode.Node
	for _, n := range c.nodes {
		if n != nil {
			ref = n
			break
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("chaos: no live node to derive storing sets from")
	}
	idx := repair.NewIndex(c.opts.N)
	idx.Rebuild(ref.ChainSnapshot())

	shielded := make(map[int]bool, len(protect))
	for _, p := range protect {
		shielded[p] = true
	}
	type candidate struct{ node, weight int }
	var cands []candidate
	for i := 0; i < c.opts.N; i++ {
		if c.nodes[i] == nil || shielded[i] {
			continue
		}
		if w := len(idx.Items(i)); w > 0 {
			cands = append(cands, candidate{node: i, weight: w})
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("chaos: no live unprotected node stores anything")
	}
	kills := int(frac*float64(len(cands)) + 0.5)
	if kills < 1 {
		kills = 1
	}
	if kills > len(cands) {
		kills = len(cands)
	}

	var killed []int
	for k := 0; k < kills; k++ {
		total := 0
		for _, cd := range cands {
			total += cd.weight
		}
		r := c.rng.Intn(total)
		pick := 0
		for r >= cands[pick].weight {
			r -= cands[pick].weight
			pick++
		}
		victim := cands[pick].node
		cands = append(cands[:pick], cands[pick+1:]...)
		if err := c.Crash(victim); err != nil {
			return killed, err
		}
		killed = append(killed, victim)
	}
	sort.Ints(killed)
	return killed, nil
}

// Restart brings a crashed node back (reopening its store if it has one)
// and reconnects it to every live peer.
func (c *Cluster) Restart(i int) error {
	if c.nodes[i] != nil {
		return fmt.Errorf("chaos: node %d still up", i)
	}
	if err := c.startNode(i); err != nil {
		return err
	}
	addrs := make([]string, 0, len(c.nodes))
	for j, n := range c.nodes {
		if j != i && n != nil {
			addrs = append(addrs, Addr(j))
		}
	}
	return c.nodes[i].Connect(addrs...)
}

// Partition splits the cluster into node-index groups (see
// memnet.Network.Partition); in-flight messages across the cut are lost.
func (c *Cluster) Partition(groups ...[]int) {
	addrGroups := make([][]string, len(groups))
	for gi, g := range groups {
		addrGroups[gi] = make([]string, len(g))
		for i, n := range g {
			addrGroups[gi][i] = Addr(n)
		}
	}
	c.Net.Partition(addrGroups...)
}

// Heal removes every network cut.
func (c *Cluster) Heal() { c.Net.Heal() }

// Close shuts all live nodes down.
func (c *Cluster) Close() {
	for i, n := range c.nodes {
		if n != nil {
			_ = n.Close()
			c.nodes[i] = nil
		}
	}
}

// step executes the single earliest scheduled happening — a due network
// message or a due timer, messages first on ties — and reports false when
// nothing is due at or before horizon.
func (c *Cluster) step(horizon time.Time) bool {
	msgAt, msgOK := c.Net.NextDue()
	timerAt, timerOK := c.Clock.NextTimer()
	switch {
	case !msgOK && !timerOK:
		return false
	case msgOK && (!timerOK || !msgAt.After(timerAt)):
		if msgAt.After(horizon) {
			return false
		}
		// No timer precedes msgAt, so jumping without firing is safe; a
		// timer due exactly at msgAt waits for the message (sim.VClock.Jump).
		c.Clock.Jump(msgAt)
		c.Net.DeliverNext()
	default:
		if timerAt.After(horizon) {
			return false
		}
		c.Clock.AdvanceTo(timerAt)
	}
	return true
}

// Run advances the cluster by d of virtual time, interleaving message
// deliveries and timer fires in due order.
func (c *Cluster) Run(d time.Duration) {
	horizon := c.Clock.Now().Add(d)
	for c.step(horizon) {
	}
	c.Clock.AdvanceTo(horizon)
}

// RunUntil advances the cluster until cond holds at a network-idle point
// (no in-flight messages), or fails after max of virtual time. Mining
// timers keep the world moving, so the bound is on virtual time, not
// steps.
func (c *Cluster) RunUntil(cond func() bool, max time.Duration) error {
	horizon := c.Clock.Now().Add(max)
	if c.Net.Pending() == 0 && cond() {
		return nil
	}
	for c.step(horizon) {
		if c.Net.Pending() == 0 && cond() {
			return nil
		}
	}
	if cond() {
		return nil
	}
	return fmt.Errorf("chaos: condition not reached within %v of virtual time (now %v since epoch)",
		max, c.Clock.Now().Sub(c.Epoch))
}

// Converged reports whether every live node has the identical chain.
func (c *Cluster) Converged() bool {
	return CheckConvergence(c.Nodes()) == nil
}

// ConvergedHeaders reports whether every live node agrees on height and
// every header hash — convergence for clusters containing pruned replicas,
// whose body windows legitimately differ.
func (c *Cluster) ConvergedHeaders() bool {
	return CheckHeaderConvergence(c.Nodes()) == nil
}

// Settle waits (in virtual time) for full convergence of all live nodes.
func (c *Cluster) Settle(max time.Duration) error {
	if err := c.RunUntil(c.Converged, max); err != nil {
		return fmt.Errorf("%w; convergence: %v", err, CheckConvergence(c.Nodes()))
	}
	return nil
}

// CheckInvariants runs every post-quiescence invariant against the
// cluster: single-chain convergence, full structural + PoS validity of the
// adopted chain, and per-node ledger/storage accounting consistency.
func (c *Cluster) CheckInvariants() error {
	nodes := c.Nodes()
	if err := CheckConvergence(nodes); err != nil {
		return err
	}
	if len(nodes) == 0 {
		return nil
	}
	if err := CheckChainValidity(nodes[0].ChainSnapshot(), c.accounts, c.params); err != nil {
		return err
	}
	for i, n := range nodes {
		if err := CheckLedgerAccounting(n, c.accounts); err != nil {
			return fmt.Errorf("live node %d: %w", i, err)
		}
	}
	return nil
}
