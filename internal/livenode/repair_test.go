package livenode

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// assignment returns the latest on-chain storing set for id as seen by n.
func assignment(n *Node, id meta.DataID) []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	it := n.eng.LiveItem(id)
	if it == nil {
		return nil
	}
	return append([]int(nil), it.StoringNodes...)
}

// TestLiveRepairReReplicates kills a storing node on a real-TCP cluster
// and waits for the self-healing pipeline to run end to end: the churn
// detectors mark the node dead, a miner packs a repair re-announcement
// excluding it, and the newly assigned node fetches the content.
func TestLiveRepairReReplicates(t *testing.T) {
	const n = 4
	const probeEvery = 200 * time.Millisecond
	idents, accounts := testRoster(n)
	epoch := time.Now()
	regs := make([]*telemetry.Registry, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		regs[i] = telemetry.NewRegistry()
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			ListenAddr:  "127.0.0.1:0",
			// Small capacity: FDC turns positive after the first block, so
			// item placements narrow to the replica floor instead of the
			// degenerate everything-everywhere clique optimum.
			StorageCapacity:    48,
			Telemetry:          regs[i],
			RepairWorkers:      2,
			RepairProbeEvery:   probeEvery,
			RepairSuspectAfter: 2 * time.Second,
			RepairHysteresis:   time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	closed := make([]bool, n)
	defer func() {
		for i, node := range nodes {
			if !closed[i] {
				node.Close()
			}
		}
	}()
	for i, a := range nodes {
		for j, b := range nodes {
			if i < j {
				if err := a.Connect(b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Let a block land first so every node's storage shows some use and
	// the next placement is selective.
	waitFor(t, 30*time.Second, "first block everywhere", func() bool {
		for _, node := range nodes {
			if node.Height() < 1 {
				return false
			}
		}
		return true
	})

	it, err := nodes[0].Publish([]byte("replica under churn"), "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}
	// Wait for every assigned node to actually hold the bytes, not just
	// for the placement to land: killing the victim while it is still the
	// sole holder (the producer, before its replicas' initial fetches
	// complete) destroys the only copy, which no repair protocol can undo.
	var storing []int
	waitFor(t, 30*time.Second, "item placed below the full mesh", func() bool {
		storing = assignment(nodes[0], it.ID)
		if len(storing) == 0 || len(storing) >= n {
			return false
		}
		for _, sn := range storing {
			if !nodes[sn].HasData(it.ID) {
				return false
			}
		}
		return true
	})

	victim := storing[0]
	if err := nodes[victim].Kill(); err != nil {
		t.Fatal(err)
	}
	closed[victim] = true

	waitFor(t, 60*time.Second, "item re-replicated off the dead node", func() bool {
		var ref []int
		for i, node := range nodes {
			if i == victim {
				continue
			}
			ref = assignment(node, it.ID)
			break
		}
		if len(ref) < 2 {
			return false
		}
		for _, sn := range ref {
			if sn == victim {
				return false
			}
			if !nodes[sn].HasData(it.ID) {
				return false
			}
		}
		return true
	})

	// Re-replication (repair_bytes counts it together with liveness probes)
	// moved real bytes, and strictly fewer than consensus.
	var repairBytes, heartbeatBytes, consensusBytes uint64
	for i, reg := range regs {
		if i == victim {
			continue
		}
		snap := reg.Snapshot()
		repairBytes += snap.Counter("livenode.wire.repair_bytes")
		heartbeatBytes += snap.Counter("livenode.wire.heartbeat_bytes")
		consensusBytes += snap.Counter("livenode.wire.consensus_bytes")
	}
	t.Logf("re-replication %d B, liveness %d B, consensus plane %d B",
		repairBytes-heartbeatBytes, heartbeatBytes, consensusBytes)
	if repairBytes == heartbeatBytes {
		t.Fatal("repair plane fetched no bytes")
	}
	if repairBytes-heartbeatBytes >= consensusBytes {
		t.Fatalf("re-replication bytes %d not below consensus bytes %d", repairBytes-heartbeatBytes, consensusBytes)
	}
	// Liveness has its own budget. A four-node roster fits in one probe
	// sample, so a tick costs a node at most one 5-byte probe (the frame
	// header alone) to, and one full-digest ack for, each of its peers. The
	// ack is the header and one 2-byte entry per other node: a gap below the
	// roster and an age below the 3 s dead window, 30 units, one byte each.
	// At this tick rate that is more than the handful of blocks mined meanwhile.
	ticks := uint64(time.Since(epoch)/probeEvery) + 1
	const perTick = (n - 1) * (5 + 5 + 2*(n-1))
	if limit := (n - 1) * ticks * perTick; heartbeatBytes > limit {
		t.Fatalf("liveness bytes %d over %d (%d ticks of %d B on each survivor)", heartbeatBytes, limit, ticks, perTick)
	}
}

// winWith has n win its next round with a block built by hand: the items
// keep the storing sets the test gave them and nothing else is packed — no
// placement or repair of n's own. The PoS claim is n's valid one,
// so every replica on the same chain accepts the block. The clock moves to
// the round's fire time first; n adopts the block through its engine, which
// neither relays it nor re-arms mining.
func (n *syncTestNode) winWith(t testing.TB, items ...*meta.Item) *block.Block {
	t.Helper()
	n.mu.Lock()
	r, ok := n.eng.NextRound()
	n.mu.Unlock()
	if !ok {
		t.Fatal("node cannot mine")
	}
	if d := n.epoch.Add(r.FireAt()).Sub(n.clock.Now()); d > 0 {
		n.clock.Advance(d)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	bld := block.NewBuilder(n.eng.Tip(), n.cfg.Identity.Address(), r.FireAt(), r.T, r.B)
	for _, it := range items {
		bld.AddItem(it)
	}
	blk := bld.Seal()
	if _, err := n.eng.ReceiveBlock(blk); err != nil {
		t.Fatalf("node refused its own block: %v", err)
	}
	return blk
}

// adopt hands blocks to n's engine, as a push it accepted would.
func (n *syncTestNode) adopt(t testing.TB, blocks ...*block.Block) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, b := range blocks {
		if _, err := n.eng.ReceiveBlock(b); err != nil {
			t.Fatalf("block %d refused: %v", b.Index, err)
		}
	}
}

// Pruned and snapshot-started nodes repair what they were assigned (DESIGN.md
// §11, §14). Each case leaves node "a" (roster 0) holding a chain that
// assigns item X to it alone, announced where its replica holds no body: below
// the pruned body window, at or below a persisted snapshot's anchor, at or
// below a peer's snapshot's anchor. X's producer "b" (roster 1) keeps the
// bytes; roster node 2 never runs. Nobody mines during the check, so no block
// re-places X. A single storing node is under the floor of two, so the gauge
// counts X whatever the detector says.

// repairAuditNodes builds a and b on one fake fabric and clock, repair on,
// mining off, linked; mutate adjusts a's config.
func repairAuditNodes(t *testing.T, mutate func(cfg *Config)) (fn *fakeNet, clk *sim.VClock, a, b *syncTestNode) {
	t.Helper()
	fn = newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk = sim.NewVClock(epoch)
	b = newGossipTestNode(t, fn, clk, "b", 1, epoch, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a = newGossipTestNode(t, fn, clk, "a", 0, epoch, func(cfg *Config) {
		cfg.RepairWorkers = 1
		if mutate != nil {
			mutate(cfg)
		}
	})
	a.stopMining()
	b.stopMining()
	link(t, a, b)
	return fn, clk, a, b
}

// assignedItem is X: produced by b, stored by a alone, bytes at b.
func assignedItem(t *testing.T, b *syncTestNode) *meta.Item {
	t.Helper()
	content := "assigned where no body is kept"
	it := testItem(b.idents()[1], content, b.now())
	it.StoringNodes = []int{0}
	if err := b.store.PutData(it.ID, []byte(content)); err != nil {
		t.Fatal(err)
	}
	return it
}

// checkAuditRefetches deletes id's bytes at n and requires the probe tick's
// self-audit to fetch them back with a repair fetch within three
// ticks, with livenode.repair.under_replicated counting the single-replica
// item on the tick before the deletion and on every tick after it.
func checkAuditRefetches(t *testing.T, n *syncTestNode, id meta.DataID) {
	t.Helper()
	n.stopMining()
	tick := func() {
		n.clock.Advance(n.cfg.RepairProbeEvery)
		if g := n.reg.Snapshot().Gauge("livenode.repair.under_replicated"); g != 1 {
			t.Fatalf("repair.under_replicated = %d, want 1: the node's index lost its assignment", g)
		}
	}
	tick()
	if err := n.store.DeleteData(id); err != nil {
		t.Fatal(err)
	}
	for k := 0; !n.HasData(id); k++ {
		if k == 3 {
			t.Fatal("the self-audit did not refetch the assigned item within three probe ticks")
		}
		tick()
	}
	if v := counter(n.reg, "livenode.repair.completed"); v == 0 {
		t.Fatal("the bytes came back without a repair fetch")
	}
}

// (a) A pruning node adopts a fork above its checkpoint after X's block left
// its body window: the fork-point state comes from a snapshot, not from
// bodies, and the audit still finds X.
func TestRepairAuditBelowPrunedFork(t *testing.T) {
	_, _, a, b := repairAuditNodes(t, func(cfg *Config) { cfg.PruneDepth = 4 })
	x := assignedItem(t, b)
	b.adopt(t, a.winWith(t, x))
	for a.Height() < 10 {
		b.adopt(t, a.winWith(t))
	}
	a.winWith(t) // a's own branch: 11, 12
	a.winWith(t)
	var branch []*block.Block
	for len(branch) < 3 { // b's longer branch: 11', 12', 13'
		branch = append(branch, b.winWith(t))
	}
	if base := a.BodyBase(); base <= 1 {
		t.Fatalf("body base %d: X's block was not pruned before the fork", base)
	}
	a.receiveBlock("b", branch[2], false) // gap: locator sync adopts the branch
	if a.Tip().Hash != branch[2].Hash || counter(a.reg, "livenode.fork.adoptions") != 1 {
		t.Fatalf("fork not adopted: height %d, %d fork adoptions", a.Height(), counter(a.reg, "livenode.fork.adoptions"))
	}
	checkAuditRefetches(t, a, x.ID)
}

// (b) A pruning node restarts from its persisted snapshot, whose anchor is
// at or above X's block; the WAL replays only the blocks above the anchor.
func TestRepairAuditAfterSnapshotRestart(t *testing.T) {
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir, store.Options{Sync: store.SyncAlways, SegmentBlocks: 4})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	durable := func(st *store.Store) func(cfg *Config) {
		return func(cfg *Config) { cfg.Store, cfg.PruneDepth = st, 4 }
	}
	fn, clk, a, b := repairAuditNodes(t, durable(open()))
	x := assignedItem(t, b)
	a.winWith(t, x)
	for a.Height() < 12 {
		a.winWith(t)
	}
	clk.Advance(a.cfg.RepairProbeEvery) // the placement fetch has run
	if !a.HasData(x.ID) {
		t.Fatal("a never fetched its assignment")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	st := open()
	if _, _, h, ok := st.RecoveredSnapshot(); !ok || h < 1 {
		t.Fatalf("no snapshot anchored at or above X's block (ok=%v, height %d)", ok, h)
	}
	a2 := newGossipTestNode(t, fn, clk, "a2", 0, a.epoch, func(cfg *Config) {
		cfg.RepairWorkers = 1
		durable(st)(cfg)
	})
	link(t, a2, b)
	if a2.Height() != 12 || a2.BodyBase() <= 1 {
		t.Fatalf("restart at height %d, body base %d: not snapshot-anchored above X", a2.Height(), a2.BodyBase())
	}
	checkAuditRefetches(t, a2, x.ID)
}

// (c) A fresh node bootstraps from b's snapshot, whose anchor is above X's
// block, and catches up the suffix; it never saw X's announcement.
func TestRepairAuditAfterSnapshotBootstrap(t *testing.T) {
	fn, clk, _, b := repairAuditNodes(t, nil)
	x := assignedItem(t, b)
	b.winWith(t, x)
	for b.Height() < 10 {
		b.winWith(t)
	}
	a := newGossipTestNode(t, fn, clk, "fresh", 0, b.epoch, func(cfg *Config) {
		cfg.RepairWorkers = 1
		cfg.BootstrapSnapshot = true
	})
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.Height() != 10 || a.BodyBase() <= 1 || counter(a.reg, "livenode.bootstrap.installed") != 1 {
		t.Fatalf("bootstrap: height %d, body base %d", a.Height(), a.BodyBase())
	}
	checkAuditRefetches(t, a, x.ID)
}
