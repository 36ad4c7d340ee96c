package core

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/pos"
)

// TestCheckpointBlocksFinalizeHistory verifies the Section V-D checkpoint
// defense: a longer fork that rewrites history at or below the latest
// checkpoint is refused.
func TestCheckpointBlocksFinalizeHistory(t *testing.T) {
	cfg := quickConfig(8, 21)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0
	cfg.CheckpointInterval = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Minute)
	victim := sys.Node(0)
	h := victim.Chain().Height()
	if h < 4 {
		t.Skipf("only %d blocks mined", h)
	}
	cp := victim.lastCheckpoint()
	if cp == 0 {
		t.Fatalf("no checkpoint at height %d with interval 3", h)
	}

	// Build a fake longer chain that diverges at height 1 (below the
	// checkpoint). PoS claims on it are self-consistent by construction:
	// the attacker replays its own wins on a fresh ledger.
	attacker := sys.Node(1)
	params := sys.cfg.PoS
	scratch := pos.NewLedger(sys.accounts)
	fake := []*block.Block{sys.genesis}
	for len(fake) < int(h)+3 {
		prev := fake[len(fake)-1]
		bval := params.AmendmentB(scratch.N(), scratch.UBar())
		hit := params.Hit(prev, attacker.ident.Address())
		wt := pos.TimeToMine(hit, scratch.U(1), bval)
		if wt == pos.NeverMines {
			t.Fatal("attacker cannot mine")
		}
		blk := block.NewBuilder(prev, attacker.ident.Address(),
			prev.Timestamp+time.Duration(wt)*time.Second, wt, bval).Seal()
		if err := scratch.ApplyBlock(blk); err != nil {
			t.Fatal(err)
		}
		fake = append(fake, blk)
	}

	before := victim.Chain().Tip().Hash
	victim.handleChainResponse(msgChainResponse{blocks: fake})
	if victim.Chain().Tip().Hash != before {
		t.Fatal("checkpointed history was rewritten by a longer fork")
	}

	// Without checkpoints the same fork must be adopted (control).
	cfg2 := cfg
	cfg2.CheckpointInterval = 0
	sys2, err := NewSystem(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(15 * time.Minute)
	victim2 := sys2.Node(0)
	if int(victim2.Chain().Height()) >= len(fake)-1 {
		t.Skip("control chain too tall for the fake fork")
	}
	victim2.handleChainResponse(msgChainResponse{blocks: fake})
	if victim2.Chain().Tip().Hash != fake[len(fake)-1].Hash {
		t.Fatal("control: longest-chain rule did not adopt the longer fork")
	}
}

// TestRecentDepthCap verifies the Section VII recent-cache expiration:
// allowances stop growing at the cap.
func TestRecentDepthCap(t *testing.T) {
	cfg := quickConfig(8, 22)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0
	cfg.RecentDepthCap = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(40 * time.Minute)
	for i := 0; i < cfg.NumNodes; i++ {
		n := sys.Node(i)
		if d := n.recent.Depth(); d > 2 {
			t.Fatalf("node %d recent depth %d exceeds cap 2", i, d)
		}
		if d := n.eng.View().RecentDepth(i); d > 2 {
			t.Fatalf("node %d view depth %d exceeds cap 2", i, d)
		}
	}
}

// TestMigrationAdvice verifies the Section VII data-migration analysis:
// advice reflects drift between recorded and freshly computed placements,
// and plans are well-formed.
func TestMigrationAdvice(t *testing.T) {
	cfg := quickConfig(12, 23)
	cfg.DataRatePerMin = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * time.Minute)
	advice := sys.MigrationAdvice(0)
	for _, a := range advice {
		if a.Plan.Empty() {
			t.Fatalf("empty plan included in advice: %+v", a)
		}
		for _, m := range a.Plan.Moves {
			if m.To < 0 || m.To >= cfg.NumNodes {
				t.Fatalf("move target out of range: %+v", m)
			}
		}
	}
	t.Logf("%d items drifted from optimal placement", len(advice))
}

// TestPoWConsensusMode verifies the Fig. 6 baseline inside the full system:
// blocks are mined at roughly the same pace as PoS, but the hash work burns
// orders of magnitude more energy.
func TestPoWConsensusMode(t *testing.T) {
	cfg := quickConfig(10, 31)
	cfg.Consensus = ConsensusPoW
	cfg.DataRatePerMin = 1
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Minute)
	res := sys.Results()
	if res.Consensus != ConsensusPoW {
		t.Fatalf("consensus echo = %v", res.Consensus)
	}
	if res.ChainHeight < 5 {
		t.Fatalf("PoW mode mined only %d blocks in 20 min (t0=30s)", res.ChainHeight)
	}
	var mining float64
	for _, j := range res.MiningEnergyJ {
		mining += j
	}
	if mining <= 0 {
		t.Fatal("no mining energy recorded")
	}
	// All nodes converge under PoW too.
	tip := sys.Node(0).Chain().Tip()
	for i := 1; i < cfg.NumNodes; i++ {
		if sys.Node(i).Chain().Tip().Hash != tip.Hash {
			t.Fatalf("node %d diverged under PoW", i)
		}
	}
}

// TestEnergyAccountingPoSVsPoW checks the in-system energy ordering.
func TestEnergyAccountingPoSVsPoW(t *testing.T) {
	run := func(algo ConsensusAlgo) *Results {
		cfg := quickConfig(8, 32)
		cfg.Consensus = algo
		cfg.DataRatePerMin = 0
		cfg.MobilityEpoch = 0
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(20 * time.Minute)
		return sys.Results()
	}
	posRes := run(ConsensusPoS)
	powRes := run(ConsensusPoW)
	var posJ, powJ float64
	for i := range posRes.MiningEnergyJ {
		posJ += posRes.MiningEnergyJ[i]
	}
	for i := range powRes.MiningEnergyJ {
		powJ += powRes.MiningEnergyJ[i]
	}
	if powJ <= posJ {
		t.Fatalf("PoW mining energy %.2f J not above PoS %.2f J", powJ, posJ)
	}
	if posRes.EnergyPerBlockJ <= 0 || powRes.EnergyPerBlockJ <= 0 {
		t.Fatal("per-block energy not recorded")
	}
	t.Logf("PoS %.1f J vs PoW %.1f J mining energy", posJ, powJ)
}

// TestRadioEnergyScalesWithTraffic confirms radio joules follow the byte
// counters.
func TestRadioEnergyScalesWithTraffic(t *testing.T) {
	cfg := quickConfig(10, 33)
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Minute)
	res := sys.Results()
	st := sys.Network().Stats()
	for i, j := range res.RadioEnergyJ {
		want := cfg.RadioJPerByte * float64(st.TxBytes[i]+st.RxBytes[i])
		if j != want {
			t.Fatalf("node %d radio energy %.3f, want %.3f", i, j, want)
		}
	}
}

// TestMigrationExecutes verifies the executed data-migration path: with
// MigrateMaxPerBlock enabled, drifted items get re-announced with new
// storing sets, new holders fetch the content and released holders free
// their storage.
func TestMigrationExecutes(t *testing.T) {
	cfg := quickConfig(12, 41)
	cfg.MigrateMaxPerBlock = 2
	cfg.MigrateCostRatio = 1.01 // migrate on the slightest drift
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(40 * time.Minute)
	res := sys.Results()
	if res.Migrations == 0 {
		t.Skip("no drift materialized under this seed")
	}
	// A fork is resolved by the next block that crosses it, and the radio
	// topology splits for a mobility epoch now and then: at this seed nodes
	// 1, 3, 4 and node 11 are out of the other eight's reach in the epoch
	// that ends at 39m30s, both sides mine (heights 79 and 80), and no block
	// is mined between the heal and 40m. Let the run go on until one has
	// crossed; every node must then stand on node 0's tip.
	ref := sys.Node(0)
	behind := func() (ids []int) {
		for i := 1; i < cfg.NumNodes; i++ {
			if sys.Node(i).eng.Tip().Hash != ref.eng.Tip().Hash {
				ids = append(ids, i)
			}
		}
		return ids
	}
	for deadline := sys.clock.Elapsed() + 5*time.Minute; len(behind()) > 0; {
		if sys.clock.Elapsed() >= deadline {
			t.Fatalf("nodes %v still off node 0's tip (height %d) at %v", behind(), ref.eng.Height(), sys.clock.Elapsed())
		}
		sys.clock.Advance(time.Second)
	}
	// Consistency: for every live item, all nodes agree on the latest
	// assignment, and assigned nodes hold (or are fetching) the content.
	for id, it := range ref.eng.LiveItems() {
		for i := 1; i < cfg.NumNodes; i++ {
			other := sys.Node(i).eng.LiveItem(id)
			if other == nil {
				continue // late propagation
			}
			if !sameSet(it.StoringNodes, other.StoringNodes) {
				t.Fatalf("nodes disagree on assignment of %s: %v vs %v",
					id.Short(), it.StoringNodes, other.StoringNodes)
			}
		}
	}
	// Released holders really freed storage: no node stores an item it is
	// neither assigned to nor produced or consumed.
	for i := 0; i < cfg.NumNodes; i++ {
		node := sys.Node(i)
		for id := range node.dataStore {
			it := node.eng.LiveItem(id)
			if it == nil {
				continue
			}
			assigned := false
			for _, sn := range it.StoringNodes {
				if sn == i {
					assigned = true
				}
			}
			if !assigned {
				t.Fatalf("node %d still stores migrated-away item %s", i, id.Short())
			}
		}
	}
	t.Logf("%d migrations executed", res.Migrations)
}

// TestMigrationDisabledByDefault confirms the paper's status quo.
func TestMigrationDisabledByDefault(t *testing.T) {
	cfg := quickConfig(10, 42)
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Minute)
	if sys.Results().Migrations != 0 {
		t.Fatal("migrations ran without being enabled")
	}
}

// TestStakeRescaleInSystem runs the Section V-B automatic rescaling inside
// the full system: consensus must be unaffected (all nodes converge) and
// the scale must have grown.
func TestStakeRescaleInSystem(t *testing.T) {
	cfg := quickConfig(8, 61)
	cfg.MobilityEpoch = 0
	cfg.StakeRescaleEvery = 5
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Minute)
	if sys.Node(0).Chain().Height() < 5 {
		t.Skip("too few blocks")
	}
	if sys.Node(0).eng.Ledger().Scale() <= 1 {
		t.Fatal("automatic rescaling never fired")
	}
	tip := sys.Node(0).Chain().Tip()
	for i := 1; i < cfg.NumNodes; i++ {
		if sys.Node(i).Chain().Tip().Hash != tip.Hash {
			t.Fatalf("node %d diverged under stake rescaling", i)
		}
	}
}

// TestForkReannouncedItemRequestedOnce: an item first announced on a branch
// that a fork adoption then disconnects is announced as new a second time by
// the winning branch (First is computed against fork-point state). The
// requester's consumption request is set up once all the same.
func TestForkReannouncedItemRequestedOnce(t *testing.T) {
	cfg := quickConfig(4, 23)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	victim := sys.Node(0)
	// Nobody holds the content, so every request that is issued ends as
	// exactly one failed request.
	it := &meta.Item{
		ID:       meta.HashData([]byte("wanted by node 0")),
		Type:     "t",
		ValidFor: time.Hour,
		DataSize: cfg.DataSize,
	}
	it.Sign(sys.Node(2).ident)
	it.StoringNodes = []int{3}
	sys.wanted[it.ID] = map[int]bool{0: true}

	ledger := pos.NewLedger(sys.accounts)
	mine := func(prev *block.Block, miner int, items ...*meta.Item) *block.Block {
		addr := sys.Node(miner).ident.Address()
		bval := cfg.PoS.AmendmentB(ledger.N(), ledger.UBar())
		wt := pos.TimeToMine(cfg.PoS.Hit(prev, addr), ledger.U(miner), bval)
		if wt == pos.NeverMines {
			t.Fatalf("node %d cannot mine", miner)
		}
		bl := block.NewBuilder(prev, addr, prev.Timestamp+time.Duration(wt)*time.Second, wt, bval)
		for _, it := range items {
			bl.AddItem(it)
		}
		return bl.Seal()
	}
	lost := mine(sys.genesis, 1, it)
	won := mine(sys.genesis, 2, it)
	if err := ledger.ApplyBlock(won); err != nil {
		t.Fatal(err)
	}
	fork := []*block.Block{sys.genesis, won, mine(won, 2)}

	// Nothing mines (Run was never called); only the clock moves.
	sys.clock.Advance(max(lost.Timestamp, fork[2].Timestamp) - sys.clock.Elapsed())
	victim.handleBlock(1, lost)
	if victim.Chain().Tip().Hash != lost.Hash {
		t.Fatal("first branch not adopted")
	}
	victim.handleChainResponse(msgChainResponse{blocks: fork})
	if victim.Chain().Tip().Hash != fork[2].Hash || !victim.eng.OnChain(it.ID) {
		t.Fatal("fork not adopted")
	}
	sys.clock.Advance(cfg.RequestSpread + 4*cfg.RequestTimeout)
	if got := sys.stats.failedRequests; got != 1 {
		t.Fatalf("%d consumption requests for an item announced on both branches, want 1", got)
	}
}
