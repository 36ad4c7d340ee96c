package engine

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
)

// testCluster drives n engines over one shared virtual clock and a 1-hop
// clique topology — the pure-logic equivalent of a fully meshed network.
type testCluster struct {
	idents   []*identity.Identity
	accounts []identity.Address
	engines  []*Engine
	now      time.Duration
	events   [][]AppendEvent
}

func newTestCluster(t testing.TB, n int, mutate func(i int, cfg *Config)) *testCluster {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	c := &testCluster{
		idents:   make([]*identity.Identity, n),
		accounts: make([]identity.Address, n),
		engines:  make([]*Engine, n),
		events:   make([][]AppendEvent, n),
	}
	for i := 0; i < n; i++ {
		c.idents[i] = identity.GenerateSeeded(rng)
		c.accounts[i] = c.idents[i].Address()
	}
	topo := netsim.NewTopology(make([]geo.Point, n), 1)
	for i := 0; i < n; i++ {
		blockPlanner := alloc.NewPlanner(1)
		blockPlanner.MinReplicas = 1
		cfg := Config{
			Accounts:        c.accounts,
			Self:            i,
			PoS:             pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
			Genesis:         block.Genesis(42),
			Now:             func() time.Duration { return c.now },
			Topology:        func() *netsim.Topology { return topo },
			Planner:         alloc.NewPlanner(1),
			BlockPlanner:    blockPlanner,
			StorageCapacity: 250,
		}
		idx := i
		cfg.OnAppend = func(ev AppendEvent) { c.events[idx] = append(c.events[idx], ev) }
		if mutate != nil {
			mutate(i, &cfg)
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		c.engines[i] = e
	}
	return c
}

// nextRound finds the engine with the earliest winning time on the
// cluster's tip and moves the clock to that time.
func (c *testCluster) nextRound(t testing.TB) (winner int, best Round) {
	t.Helper()
	winner = -1
	for i, e := range c.engines {
		r, ok := e.NextRound()
		if !ok {
			continue
		}
		if winner < 0 || r.FireAt() < best.FireAt() {
			winner, best = i, r
		}
	}
	if winner < 0 {
		t.Fatal("no engine can mine")
	}
	c.now = best.FireAt()
	return winner, best
}

// mineNext plays one full round: the engine with the earliest winning time
// mines at exactly that time and everyone else adopts the block.
func (c *testCluster) mineNext(t testing.TB) *block.Block {
	t.Helper()
	return c.mineLate(t, 0)
}

// mineLate is mineNext with the winner sealing late after its winning
// second, as a miner whose timer fired late would: the claim stays valid (a
// timestamp may trail the winning second), and the block's timestamp moves
// the chain's time on by late more.
func (c *testCluster) mineLate(t testing.TB, late time.Duration) *block.Block {
	t.Helper()
	winner, best := c.nextRound(t)
	c.now += late
	res, err := c.engines[winner].Mine(best)
	if err != nil {
		t.Fatalf("engine %d mine: %v", winner, err)
	}
	if res == nil {
		t.Fatalf("engine %d: round moved on unexpectedly", winner)
	}
	for i, e := range c.engines {
		if i == winner {
			continue
		}
		if _, err := e.ReceiveBlock(res.Block); err != nil {
			t.Fatalf("engine %d receive: %v", i, err)
		}
	}
	return res.Block
}

func (c *testCluster) item(producer int, content string) *meta.Item {
	it := &meta.Item{
		ID:           meta.HashData([]byte(content)),
		Type:         "Test/Unit",
		Produced:     c.now,
		LocationName: "Lab",
		DataSize:     len(content),
	}
	it.Sign(c.idents[producer])
	return it
}

func TestNewConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	id := identity.GenerateSeeded(rng)
	topo := netsim.NewTopology(make([]geo.Point, 1), 1)
	base := Config{
		Accounts:        []identity.Address{id.Address()},
		Self:            0,
		PoS:             pos.DefaultParams(),
		Genesis:         block.Genesis(42),
		Now:             func() time.Duration { return 0 },
		Topology:        func() *netsim.Topology { return topo },
		Planner:         alloc.NewPlanner(1),
		BlockPlanner:    alloc.NewPlanner(1),
		StorageCapacity: 10,
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"empty roster", func(c *Config) { c.Accounts = nil }},
		{"self out of range", func(c *Config) { c.Self = 7 }},
		{"bad pos params", func(c *Config) { c.PoS = pos.Params{} }},
		{"missing genesis", func(c *Config) { c.Genesis = nil }},
		{"missing clock", func(c *Config) { c.Now = nil }},
		{"missing topology", func(c *Config) { c.Topology = nil }},
		{"missing planner", func(c *Config) { c.Planner = nil }},
		{"random placement without rand", func(c *Config) { c.RandomPlacement = true }},
		{"pruning without snapshots", func(c *Config) { c.PruneDepth = 8 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a broken config", tc.name)
		}
	}
	if _, err := New(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMineAndReceiveConvergence(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	it := c.item(0, "sensor reading 1")
	for _, e := range c.engines {
		if !e.AddMetadata(it) {
			t.Fatal("fresh metadata rejected")
		}
	}
	var packed *block.Block
	for r := 0; r < 5; r++ {
		b := c.mineNext(t)
		if len(b.Items) > 0 && packed == nil {
			packed = b
		}
	}
	if packed == nil {
		t.Fatal("item never packed into a block")
	}
	tip := c.engines[0].Tip()
	for i, e := range c.engines {
		if e.Tip().Hash != tip.Hash {
			t.Fatalf("engine %d tip diverges", i)
		}
		if e.Height() != 5 {
			t.Fatalf("engine %d height = %d, want 5", i, e.Height())
		}
		if !e.OnChain(it.ID) {
			t.Fatalf("engine %d lost the packed item", i)
		}
		if e.PoolLen() != 0 {
			t.Fatalf("engine %d pool not drained: %d", i, e.PoolLen())
		}
		live := e.LiveItem(it.ID)
		if live == nil || len(live.StoringNodes) < 2 {
			t.Fatalf("engine %d live item %v, want >= 2 replicas", i, live)
		}
		// Ledger must match an independent replay of the same chain.
		ref := pos.NewLedger(c.accounts)
		for _, b := range e.Chain().Blocks() {
			if b.Index == 0 {
				continue
			}
			if err := ref.ApplyBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		for k := range c.accounts {
			if e.Ledger().S(k) != ref.S(k) || e.Ledger().Q(k) != ref.Q(k) {
				t.Fatalf("engine %d ledger drifts from chain at account %d", i, k)
			}
		}
	}
	// Every engine saw one append event per block, with consistent flags.
	for i, evs := range c.events {
		if len(evs) != 5 {
			t.Fatalf("engine %d: %d append events, want 5", i, len(evs))
		}
		for _, ev := range evs {
			for _, ie := range ev.Items {
				if ie.Item.ID != it.ID || ie.Prev != nil {
					t.Fatalf("engine %d: unexpected item event %+v", i, ie)
				}
				want := false
				for _, sn := range ie.Item.StoringNodes {
					if sn == i {
						want = true
					}
				}
				if ie.AssignedToSelf != want {
					t.Fatalf("engine %d: AssignedToSelf = %v, storing %v", i, ie.AssignedToSelf, ie.Item.StoringNodes)
				}
			}
		}
	}
}

func TestAddMetadataRejectsForgedAndDuplicate(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	e := c.engines[0]

	forged := c.item(1, "forged")
	forged.DataSize++ // breaks the producer signature
	if e.AddMetadata(forged) {
		t.Fatal("forged metadata accepted")
	}

	it := c.item(1, "legit")
	if !e.AddMetadata(it) {
		t.Fatal("fresh metadata rejected")
	}
	if e.AddMetadata(it) {
		t.Fatal("duplicate metadata accepted")
	}
	if e.PoolLen() != 1 {
		t.Fatalf("pool = %d, want 1", e.PoolLen())
	}

	// Once on-chain, re-announcements of the same ID stay out of the pool.
	for _, other := range c.engines[1:] {
		other.AddMetadata(it)
	}
	for e.PoolLen() > 0 {
		c.mineNext(t)
	}
	if e.AddMetadata(it) {
		t.Fatal("on-chain metadata re-entered the pool")
	}
}

func TestPreAppendRejectsFutureTimestamp(t *testing.T) {
	// Two engines with separate clocks: the receiver's stays at zero, so
	// any mined block is from its future.
	rng := rand.New(rand.NewSource(1))
	idents := []*identity.Identity{identity.GenerateSeeded(rng), identity.GenerateSeeded(rng)}
	accounts := []identity.Address{idents[0].Address(), idents[1].Address()}
	topo := netsim.NewTopology(make([]geo.Point, 2), 1)
	mk := func(self int, now *time.Duration) *Engine {
		bp := alloc.NewPlanner(1)
		bp.MinReplicas = 1
		e, err := New(Config{
			Accounts:        accounts,
			Self:            self,
			PoS:             pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
			Genesis:         block.Genesis(42),
			Now:             func() time.Duration { return *now },
			Topology:        func() *netsim.Topology { return topo },
			Planner:         alloc.NewPlanner(1),
			BlockPlanner:    bp,
			StorageCapacity: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	minerNow, receiverNow := time.Duration(0), time.Duration(0)
	miner := mk(0, &minerNow)
	receiver := mk(1, &receiverNow)
	r, ok := miner.NextRound()
	if !ok {
		t.Fatal("miner cannot mine")
	}
	minerNow = r.FireAt()
	res, err := miner.Mine(r)
	if err != nil || res == nil {
		t.Fatalf("mine: %v, %v", res, err)
	}
	if _, err := receiver.ReceiveBlock(res.Block); err == nil || !strings.Contains(err.Error(), "future") {
		t.Fatalf("future-dated block accepted (err = %v)", err)
	}
	receiverNow = minerNow
	if _, err := receiver.ReceiveBlock(res.Block); err != nil {
		t.Fatalf("same block at the right time rejected: %v", err)
	}
}

func TestNextRoundMatchesPos(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	for i, e := range c.engines {
		r, ok := e.NextRound()
		wantT, wantB := e.cfg.PoS.Round(e.Tip(), c.accounts[i], e.Ledger())
		if !ok || r.T != wantT || r.B != wantB {
			t.Fatalf("engine %d: NextRound = (%d, %v, ok=%v), pos.Round = (%d, %v)", i, r.T, r.B, ok, wantT, wantB)
		}
		if r.PrevHash != e.Tip().Hash || r.FireAt() != e.Tip().Timestamp+time.Duration(r.T)*time.Second {
			t.Fatalf("engine %d: round anchors wrong", i)
		}
	}
}

func TestMineStaleRound(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	r0, _ := c.engines[0].NextRound()
	c.mineNext(t) // some engine wins; engine 0's captured round is now stale
	res, err := c.engines[0].Mine(r0)
	if err != nil {
		t.Fatalf("stale round: %v", err)
	}
	if res != nil {
		t.Fatal("stale round still produced a block")
	}
}

// TestAdoptChain: a fresh replica adopts a whole longer chain as one suffix
// from genesis, and refuses an equal, a shorter and a claim-forged one.
func TestAdoptChain(t *testing.T) {
	c := newTestCluster(t, 3, nil)
	it := c.item(0, "payload")
	for _, e := range c.engines {
		e.AddMetadata(it)
	}
	for r := 0; r < 4; r++ {
		c.mineNext(t)
	}
	donor := c.engines[0]
	suffix := donor.Chain().Blocks()[1:]

	fresh := newTestCluster(t, 3, nil)
	fresh.now = c.now
	victim := fresh.engines[0]
	victim.AddMetadata(it) // must be pruned on adoption
	if _, ok := victim.AdoptSuffix(suffix); !ok {
		t.Fatal("valid longer chain refused")
	}
	if victim.Tip().Hash != donor.Tip().Hash {
		t.Fatal("tip mismatch after adoption")
	}
	if victim.PoolLen() != 0 {
		t.Fatal("pool kept an item the adopted chain already carries")
	}
	if !victim.OnChain(it.ID) || victim.LiveItem(it.ID) == nil {
		t.Fatal("live-item index not rebuilt")
	}
	for k := range fresh.accounts {
		if victim.Ledger().S(k) != donor.Ledger().S(k) || victim.Ledger().Q(k) != donor.Ledger().Q(k) {
			t.Fatalf("ledger not rebuilt at account %d", k)
		}
	}

	// Same-length chain: refused (strictly-longer rule).
	if _, ok := victim.AdoptSuffix(suffix); ok {
		t.Fatal("equal-length chain adopted")
	}
	// Truncation: refused.
	if _, ok := victim.AdoptSuffix(suffix[:2]); ok {
		t.Fatal("shorter chain adopted")
	}
	// Forged claim: extend with a block whose amendment B is wrong.
	tip := donor.Tip()
	forged := block.NewBuilder(tip, fresh.accounts[1], c.now+time.Second, 1, 12345).Seal()
	if _, ok := victim.AdoptSuffix(append(append([]*block.Block(nil), suffix...), forged)); ok {
		t.Fatal("chain with forged PoS claim adopted")
	}
	if victim.Tip().Hash != donor.Tip().Hash {
		t.Fatal("failed adoption mutated the chain")
	}
}

// forkFrom builds a valid candidate chain of n blocks: e's own up to height
// base, then fresh ones mined by account.
func (c *testCluster) forkFrom(t *testing.T, e *Engine, base uint64, account, n int) []*block.Block {
	t.Helper()
	candidate := append([]*block.Block(nil), e.Chain().Blocks()[:base+1]...)
	led := pos.NewLedger(c.accounts)
	for _, b := range candidate[1:] {
		if err := led.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	for len(candidate) < n {
		prev := candidate[len(candidate)-1]
		tt, bv := e.cfg.PoS.Round(prev, c.accounts[account], led)
		nb := block.NewBuilder(prev, c.accounts[account], prev.Timestamp+time.Duration(tt)*time.Second, tt, bv).Seal()
		if err := led.ApplyBlock(nb); err != nil {
			t.Fatal(err)
		}
		candidate = append(candidate, nb)
	}
	return candidate
}

// checkpointEvery2 turns checkpoint finality on at interval 2. Checkpoints
// run at the prune depth, which needs periodic snapshots; none is taken
// below height 64, so nothing is pruned in these short chains.
func checkpointEvery2(i int, cfg *Config) { cfg.PruneDepth, cfg.SnapshotInterval = 2, 64 }

func TestAdoptChainCheckpointFinality(t *testing.T) {
	c := newTestCluster(t, 3, checkpointEvery2)
	for r := 0; r < 5; r++ {
		c.mineNext(t)
	}
	e := c.engines[0]
	if got := e.LastCheckpoint(); got != 4 {
		t.Fatalf("LastCheckpoint = %d, want 4", got)
	}
	// A longer candidate that rewrites history below the checkpoint: build
	// it from the height-2 prefix with fresh blocks.
	candidate := c.forkFrom(t, e, 2, 1, 7)
	c.now += 100000 * time.Second // keep the candidate out of the future
	if _, ok := e.AdoptSuffix(candidate[3:]); ok {
		t.Fatal("chain rewriting finalized history adopted")
	}
	if len(c.events[0]) != 5 {
		t.Fatalf("refused suffix delivered events: %d, want the 5 of the live appends", len(c.events[0]))
	}
}

// TestCheckpointTieAtTip: two miners fire at the same instant at a checkpoint
// height. While that block is the tip it is not final, so a replica that saw
// the losing sibling first still follows the longer chain.
func TestCheckpointTieAtTip(t *testing.T) {
	c := newTestCluster(t, 3, checkpointEvery2)
	for r := 0; r < 4; r++ {
		c.mineNext(t)
	}
	e := c.engines[0]
	if got := e.LastCheckpoint(); got != 2 {
		t.Fatalf("LastCheckpoint = %d with the checkpoint at the tip, want 2", got)
	}
	other := 0
	if e.Tip().Miner == c.accounts[0] {
		other = 1
	}
	candidate := c.forkFrom(t, e, 3, other, 6) // a sibling at height 4 and its child
	c.now += 100000 * time.Second
	if _, ok := e.AdoptSuffix(candidate[4:]); !ok {
		t.Fatal("AdoptSuffix refused the sibling of an unburied checkpoint")
	}
	// Buried now: the next rewrite of height 4 is refused.
	if got := e.LastCheckpoint(); got != 4 {
		t.Fatalf("LastCheckpoint = %d after burial, want 4", got)
	}
	if _, ok := e.AdoptSuffix(c.forkFrom(t, c.engines[2], 3, other, 8)[4:]); ok {
		t.Fatal("chain rewriting a buried checkpoint adopted")
	}
}

func TestLastCheckpointDisabled(t *testing.T) {
	c := newTestCluster(t, 2, nil)
	c.mineNext(t)
	if got := c.engines[0].LastCheckpoint(); got != 0 {
		t.Fatalf("LastCheckpoint = %d with finality disabled, want 0", got)
	}
}
