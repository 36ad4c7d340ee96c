package core

import (
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
)

// runQuiet advances a fresh system a little so a genesis-extending context
// exists, and returns it.
func adversarySystem(t *testing.T, seed int64) *System {
	t.Helper()
	cfg := quickConfig(8, seed)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3 * time.Minute)
	return sys
}

func TestForgedBlockWithUnknownMinerRejected(t *testing.T) {
	sys := adversarySystem(t, 1)
	victim := sys.Node(0)
	before := victim.Chain().Height()

	stranger := identity.GenerateSeeded(sys.rng)
	tip := victim.Chain().Tip()
	forged := block.NewBuilder(tip, stranger.Address(), sys.clock.Elapsed(), 1, tip.B).Seal()
	victim.handleBlock(1, forged)
	if victim.Chain().Height() != before {
		t.Fatal("block from unknown account accepted")
	}
}

func TestBlockWithPaddedMiningTimeRejected(t *testing.T) {
	sys := adversarySystem(t, 2)
	victim := sys.Node(0)
	cheater := sys.Node(1)
	before := victim.Chain().Height()

	// The cheater claims a mining time far beyond its winning time to
	// inflate its target.
	tip := victim.Chain().Tip()
	params := sys.cfg.PoS
	bval := params.AmendmentB(cheater.eng.Ledger().N(), cheater.eng.Ledger().UBar())
	hit := params.Hit(tip, cheater.ident.Address())
	wt := pos.TimeToMine(hit, cheater.eng.Ledger().U(1), bval)
	padded := wt + 1000
	blk := block.NewBuilder(tip, cheater.ident.Address(),
		tip.Timestamp+time.Duration(padded)*time.Second, padded, bval).Seal()
	// Deliver with a permissive clock: jump the engine forward so the
	// timestamp is not "from the future".
	sys.at(blk.Timestamp+time.Second, func() {
		victim.handleBlock(1, blk)
	})
	sys.clock.Advance(blk.Timestamp + 2*time.Second - sys.clock.Elapsed())
	if victim.Chain().Height() != before && victim.Chain().Tip().Hash == blk.Hash {
		t.Fatal("padded mining time accepted")
	}
}

func TestBlockWithWrongAmendmentRejected(t *testing.T) {
	sys := adversarySystem(t, 3)
	victim := sys.Node(0)
	cheater := sys.Node(1)
	before := victim.Chain().Height()

	tip := victim.Chain().Tip()
	params := sys.cfg.PoS
	// An inflated B makes every hit win instantly.
	badB := params.AmendmentB(cheater.eng.Ledger().N(), cheater.eng.Ledger().UBar()) * 1e6
	blk := block.NewBuilder(tip, cheater.ident.Address(),
		tip.Timestamp+time.Second, 1, badB).Seal()
	sys.at(blk.Timestamp+time.Second, func() {
		victim.handleBlock(1, blk)
	})
	sys.clock.Advance(blk.Timestamp + 2*time.Second - sys.clock.Elapsed())
	if victim.Chain().Tip().Hash == blk.Hash {
		t.Fatalf("forged amendment accepted (height %d -> %d)", before, victim.Chain().Height())
	}
}

func TestFutureTimestampRejected(t *testing.T) {
	sys := adversarySystem(t, 4)
	victim := sys.Node(0)
	cheater := sys.Node(1)

	tip := victim.Chain().Tip()
	params := sys.cfg.PoS
	bval := params.AmendmentB(cheater.eng.Ledger().N(), cheater.eng.Ledger().UBar())
	hit := params.Hit(tip, cheater.ident.Address())
	wt := pos.TimeToMine(hit, cheater.eng.Ledger().U(1), bval)
	// Honest claim, but stamped one hour into the receiver's future.
	blk := block.NewBuilder(tip, cheater.ident.Address(),
		sys.clock.Elapsed()+time.Hour, wt, bval).Seal()
	victim.handleBlock(1, blk)
	if victim.Chain().Tip().Hash == blk.Hash {
		t.Fatal("future-stamped block accepted")
	}
}

func TestTamperedMetadataInPoolDropped(t *testing.T) {
	sys := adversarySystem(t, 5)
	victim := sys.Node(0)

	producer := sys.Node(2)
	it := &meta.Item{
		ID:       meta.HashData([]byte("legit")),
		Type:     "T/x",
		Produced: sys.clock.Elapsed(),
		DataSize: 100,
	}
	it.Sign(producer.ident)
	it.Type = "T/forged" // break the signature

	before := victim.eng.PoolLen()
	victim.handleMetadata(it)
	if victim.eng.PoolLen() != before {
		t.Fatal("forged metadata entered the pool")
	}
}

func TestDataNackAdvancesToNextCandidate(t *testing.T) {
	cfg := quickConfig(6, 6)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requester := sys.Node(0)

	// A fake item that claims node 1 stores it (it does not) and node 2
	// produced it (node 2 will hold it via ownData).
	producer := sys.Node(2)
	it := &meta.Item{
		ID:       meta.HashData([]byte("want")),
		Type:     "T/x",
		DataSize: 1 << 10,
	}
	it.Sign(producer.ident)
	it.StoringNodes = []int{1}
	producer.ownData[it.ID] = true

	sys.clock.AfterFunc(0, func() { requester.startConsume(it) })
	sys.clock.Advance(time.Minute)
	if !requester.consumed[it.ID] {
		t.Fatal("requester never fell through to the producer after the NACK")
	}
	if sys.delivery.Count() != 1 {
		t.Fatalf("deliveries = %d, want 1", sys.delivery.Count())
	}
}

func TestServableBlockRespectsAssignments(t *testing.T) {
	sys := adversarySystem(t, 7)
	n := sys.Node(0)
	if !n.servableBlock(0) {
		t.Fatal("genesis must always be servable")
	}
	h := n.Chain().Height()
	if h == 0 {
		t.Skip("no blocks mined")
	}
	// The newest block is in everyone's recent cache.
	if !n.servableBlock(h) {
		t.Fatal("tip not servable despite recent cache")
	}
	// A height that is neither assigned nor recent must not be servable.
	probe := uint64(1)
	if n.recent.Contains(probe) || n.blockStore[probe] {
		t.Skip("height 1 happens to be cached on node 0")
	}
	if n.servableBlock(probe) {
		t.Fatal("unassigned, non-recent block served")
	}
}

func TestCandidateOrderingByHops(t *testing.T) {
	cfg := quickConfig(6, 8)
	cfg.MobilityEpoch = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.Node(0)
	it := &meta.Item{ID: meta.HashData([]byte("x")), StoringNodes: []int{1, 2, 3, 4, 5}}
	cands := n.candidatesFor(it)
	topo := sys.net.Topology()
	for i := 1; i < len(cands); i++ {
		a := topo.Hops(netsim.NodeID(0), netsim.NodeID(cands[i-1]))
		b := topo.Hops(netsim.NodeID(0), netsim.NodeID(cands[i]))
		if a > b {
			t.Fatalf("candidates not hop-ordered: %v", cands)
		}
	}
}
