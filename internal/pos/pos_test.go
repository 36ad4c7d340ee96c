package pos

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
	"repro/internal/meta"
)

func testAccounts(n int, seed int64) ([]identity.Address, []*identity.Identity) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]*identity.Identity, n)
	addrs := make([]identity.Address, n)
	for i := range ids {
		ids[i] = identity.GenerateSeeded(rng)
		addrs[i] = ids[i].Address()
	}
	return addrs, ids
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Params{M: 0, T0: time.Second}).Validate(); err == nil {
		t.Fatal("zero M accepted")
	}
	if err := (Params{M: 1, T0: 0}).Validate(); err == nil {
		t.Fatal("zero T0 accepted")
	}
}

func TestHitDeterministicAndBounded(t *testing.T) {
	p := DefaultParams()
	g := block.Genesis(1)
	addrs, _ := testAccounts(20, 1)
	seen := make(map[uint64]int)
	for i, a := range addrs {
		h1, h2 := p.Hit(g, a), p.Hit(g, a)
		if h1 != h2 {
			t.Fatal("hit not deterministic")
		}
		if h1 >= p.M {
			t.Fatalf("hit %d >= M", h1)
		}
		seen[h1] = i
	}
	if len(seen) != len(addrs) {
		t.Fatalf("hit collisions: %d distinct for %d accounts", len(seen), len(addrs))
	}
}

func TestHitUniformity(t *testing.T) {
	// Chi-squared sanity check: hits over many accounts should fill all
	// quarters of [0, M).
	p := Params{M: 1 << 20, T0: time.Minute}
	g := block.Genesis(2)
	addrs, _ := testAccounts(400, 2)
	buckets := make([]int, 4)
	for _, a := range addrs {
		buckets[p.Hit(g, a)*4/p.M]++
	}
	for q, c := range buckets {
		if c < 60 || c > 140 {
			t.Fatalf("quarter %d has %d/400 hits; distribution badly skewed: %v", q, c, buckets)
		}
	}
}

func TestAmendmentB(t *testing.T) {
	p := Params{M: 1 << 20, T0: time.Minute}
	b := p.AmendmentB(9, 2.0)
	want := float64(1<<20) / (10 * 60 * 2.0)
	if math.Abs(b-want) > 1e-12 {
		t.Fatalf("B = %v, want %v", b, want)
	}
	if p.AmendmentB(0, 1) != 0 || p.AmendmentB(5, 0) != 0 {
		t.Fatal("degenerate inputs must return 0")
	}
}

func TestTimeToMine(t *testing.T) {
	tests := []struct {
		name string
		hit  uint64
		u    float64
		b    float64
		want uint64
	}{
		{"zero hit mines at 1s", 0, 1, 1, 1},
		{"exact division", 100, 10, 1, 10},
		{"rounds up", 101, 10, 1, 11},
		{"below slope mines at 1s", 5, 10, 1, 1},
		{"zero slope never mines", 10, 0, 1, NeverMines},
		{"zero B never mines", 10, 1, 0, NeverMines},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := TimeToMine(tt.hit, tt.u, tt.b); got != tt.want {
				t.Errorf("TimeToMine(%d, %v, %v) = %d, want %d", tt.hit, tt.u, tt.b, got, tt.want)
			}
		})
	}
}

func TestTimeToMineMatchesPaperLoop(t *testing.T) {
	// The closed form must agree with the literal algorithm of Section V-C
	// (increment t every second until h ≤ R).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		hit := uint64(rng.Intn(100000))
		u := float64(1 + rng.Intn(50))
		b := rng.Float64()*10 + 0.01
		closed := TimeToMine(hit, u, b)
		var loop uint64 = NeverMines
		for tt := uint64(1); tt <= 200000; tt++ {
			if float64(hit) <= Target(u, tt, b) {
				loop = tt
				break
			}
		}
		if closed != loop {
			t.Fatalf("trial %d: closed form %d != loop %d (hit=%d u=%v b=%v)", trial, closed, loop, hit, u, b)
		}
	}
}

func TestLedgerInitialState(t *testing.T) {
	addrs, _ := testAccounts(3, 4)
	l := NewLedger(addrs)
	for i := range addrs {
		if l.S(i) != 1 || l.Q(i) != 1 {
			t.Fatalf("node %d: S=%d Q=%d, want 1,1 (paper's new-node floor)", i, l.S(i), l.Q(i))
		}
	}
	if l.UBar() != 1 {
		t.Fatalf("UBar = %v, want 1", l.UBar())
	}
	if idx, ok := l.IndexOf(addrs[1]); !ok || idx != 1 {
		t.Fatal("IndexOf broken")
	}
	if _, ok := l.IndexOf(identity.Address{}); ok {
		t.Fatal("unknown account resolved")
	}
}

func minedBlock(prev *block.Block, miner *identity.Identity, storing, recent []int, items []*meta.Item) *block.Block {
	bld := block.NewBuilder(prev, miner.Address(), prev.Timestamp+time.Minute, 60, 1)
	for _, it := range items {
		bld.AddItem(it)
	}
	return bld.SetStoringNodes(storing).SetRecentAssignees(recent).Seal()
}

func TestLedgerApplyBlock(t *testing.T) {
	addrs, ids := testAccounts(4, 5)
	l := NewLedger(addrs)
	g := block.Genesis(1)

	it := &meta.Item{ID: meta.HashData([]byte("d")), Type: "T/x", DataSize: 1}
	it.Sign(ids[2])
	it.StoringNodes = []int{0, 1}

	b1 := minedBlock(g, ids[0], []int{1, 2}, []int{3}, []*meta.Item{it})
	if err := l.ApplyBlock(b1); err != nil {
		t.Fatal(err)
	}
	if l.S(0) != 2 {
		t.Fatalf("miner S = %d, want 2", l.S(0))
	}
	// Q: node0 stores item -> 2; node1 stores item + block -> 3;
	// node2 stores block -> 2; node3 recent assignee -> 2.
	wantQ := []uint64{2, 3, 2, 2}
	for i, w := range wantQ {
		if l.Q(i) != w {
			t.Fatalf("Q(%d) = %d, want %d", i, l.Q(i), w)
		}
	}
	if l.Height() != 1 {
		t.Fatalf("height = %d, want 1", l.Height())
	}
}

func TestLedgerOutOfOrderApply(t *testing.T) {
	addrs, ids := testAccounts(2, 6)
	l := NewLedger(addrs)
	g := block.Genesis(1)
	b1 := minedBlock(g, ids[0], nil, nil, nil)
	b2 := minedBlock(b1, ids[1], nil, nil, nil)
	if err := l.ApplyBlock(b2); err == nil {
		t.Fatal("out-of-order apply accepted")
	}
	if err := l.ApplyBlock(b1); err != nil {
		t.Fatal(err)
	}
	if err := l.ApplyBlock(b1); err == nil {
		t.Fatal("duplicate apply accepted")
	}
}

func TestLedgerRebuild(t *testing.T) {
	addrs, ids := testAccounts(2, 7)
	l := NewLedger(addrs)
	g := block.Genesis(1)
	b1 := minedBlock(g, ids[0], []int{1}, nil, nil)
	b2 := minedBlock(b1, ids[0], nil, nil, nil)
	if err := l.Rebuild([]*block.Block{g, b1, b2}); err != nil {
		t.Fatal(err)
	}
	if l.S(0) != 3 || l.Q(1) != 2 {
		t.Fatalf("rebuild state wrong: S(0)=%d Q(1)=%d", l.S(0), l.Q(1))
	}
	// Rebuild again must be idempotent.
	if err := l.Rebuild([]*block.Block{g, b1, b2}); err != nil {
		t.Fatal(err)
	}
	if l.S(0) != 3 {
		t.Fatal("second rebuild accumulated state")
	}
}

// TestAmendmentBStaysNormalWithoutRescaling: the paper divides every stake
// by a ratio now and then to keep B representable (Section V-B). float64
// does not need it. A 1 000-node ledger takes 2 000 blocks, all mined by
// node 0, each crediting the whole roster in every list a block credits:
// an item's storers, the block's storers and the recent assignees. After
// every block B is a normal, finite float64, the lightest node still wins a
// round at the worst hit, and the heaviest wins no sooner than the first
// second at the best one.
func TestAmendmentBStaysNormalWithoutRescaling(t *testing.T) {
	const n, blocks = 1000, 2000
	const minNormal = 0x1p-1022
	addrs, _ := testAccounts(n, 40)
	roster := make([]int, n)
	for i := range roster {
		roster[i] = i
	}
	p := DefaultParams()
	l := NewLedger(addrs)
	heavy, light := 0, 1
	var bval float64
	for h := uint64(1); h <= blocks; h++ {
		b := &block.Block{
			Index:           h,
			Miner:           addrs[heavy],
			Items:           []*meta.Item{{StoringNodes: roster}},
			StoringNodes:    roster,
			RecentAssignees: roster,
		}
		if err := l.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
		bval = p.AmendmentB(n, l.UBar())
		if math.IsInf(bval, 0) || math.IsNaN(bval) || bval < minNormal {
			t.Fatalf("height %d: B = %v is not a normal float64", h, bval)
		}
		if tm := TimeToMine(p.M-1, l.U(light), bval); tm >= NeverMines {
			t.Fatalf("height %d: lightest node (U = %v) never mines under B = %v", h, l.U(light), bval)
		}
		if tm := TimeToMine(1, l.U(heavy), bval); tm < 1 {
			t.Fatalf("height %d: heaviest node (U = %v) mines at %d s", h, l.U(heavy), tm)
		}
	}
	if l.U(heavy) <= l.U(light) || l.U(light) != float64(1+3*blocks) {
		t.Fatalf("stakes did not grow as built: U heavy %v, light %v", l.U(heavy), l.U(light))
	}
	t.Logf("after %d blocks: Ū = %v, B = %v, lightest worst time %d s", blocks, l.UBar(), bval,
		TimeToMine(p.M-1, l.U(light), bval))
}

func TestValidateClaimAcceptsHonestBlock(t *testing.T) {
	addrs, ids := testAccounts(5, 10)
	p := DefaultParams()
	g := block.Genesis(1)
	l := NewLedger(addrs)

	bval := p.AmendmentB(l.N(), l.UBar())
	// Find the winner: the node with the earliest winning time.
	winner, wt := -1, uint64(NeverMines)
	for i := range addrs {
		if tm := TimeToMine(p.Hit(g, addrs[i]), l.U(i), bval); tm < wt {
			winner, wt = i, tm
		}
	}
	if winner < 0 {
		t.Fatal("no winner")
	}
	b := block.NewBuilder(g, addrs[winner], g.Timestamp+time.Duration(wt)*time.Second, wt, bval).Seal()
	if err := p.ValidateClaim(g, b, l); err != nil {
		t.Fatalf("honest claim rejected: %v", err)
	}
	_ = ids
}

func TestValidateClaimRejections(t *testing.T) {
	addrs, _ := testAccounts(5, 11)
	p := DefaultParams()
	g := block.Genesis(1)
	l := NewLedger(addrs)
	bval := p.AmendmentB(l.N(), l.UBar())

	winner, wt := -1, uint64(NeverMines)
	for i := range addrs {
		if tm := TimeToMine(p.Hit(g, addrs[i]), l.U(i), bval); tm < wt {
			winner, wt = i, tm
		}
	}
	loser := (winner + 1) % len(addrs)
	loserTime := TimeToMine(p.Hit(g, addrs[loser]), l.U(loser), bval)

	t.Run("unknown miner", func(t *testing.T) {
		stranger := identity.GenerateSeeded(rand.New(rand.NewSource(99)))
		b := block.NewBuilder(g, stranger.Address(), g.Timestamp+time.Minute, 60, bval).Seal()
		if err := p.ValidateClaim(g, b, l); !errors.Is(err, ErrUnknownNode) {
			t.Fatalf("err = %v, want ErrUnknownNode", err)
		}
	})
	t.Run("wrong B", func(t *testing.T) {
		b := block.NewBuilder(g, addrs[winner], g.Timestamp+time.Duration(wt)*time.Second, wt, bval*2).Seal()
		if err := p.ValidateClaim(g, b, l); !errors.Is(err, ErrBadB) {
			t.Fatalf("err = %v, want ErrBadB", err)
		}
	})
	t.Run("premature claim", func(t *testing.T) {
		if wt <= 1 {
			t.Skip("winner mines at 1s; no earlier time exists")
		}
		early := wt - 1
		b := block.NewBuilder(g, addrs[winner], g.Timestamp+time.Duration(early)*time.Second, early, bval).Seal()
		if err := p.ValidateClaim(g, b, l); !errors.Is(err, ErrHitNotMet) {
			t.Fatalf("err = %v, want ErrHitNotMet", err)
		}
	})
	t.Run("padded time", func(t *testing.T) {
		// The loser waits long enough that its hit condition holds, but
		// claims a time later than its true winning time is fine; claiming
		// later than winning time must fail only if > winning time. Here we
		// claim winning+10 which must be rejected as non-minimal.
		padded := loserTime + 10
		b := block.NewBuilder(g, addrs[loser], g.Timestamp+time.Duration(padded)*time.Second, padded, bval).Seal()
		if err := p.ValidateClaim(g, b, l); !errors.Is(err, ErrNotMinimal) {
			t.Fatalf("err = %v, want ErrNotMinimal", err)
		}
	})
	t.Run("timestamp before win rejected", func(t *testing.T) {
		if wt == 0 {
			t.Skip("degenerate winning time")
		}
		b := block.NewBuilder(g, addrs[winner], g.Timestamp+time.Duration(wt)*time.Second-time.Millisecond, wt, bval).Seal()
		if err := p.ValidateClaim(g, b, l); !errors.Is(err, ErrBadElapsed) {
			t.Fatalf("err = %v, want ErrBadElapsed", err)
		}
	})
	t.Run("late timestamp accepted", func(t *testing.T) {
		// Propagation delay means honest blocks may carry timestamps after
		// the winning second.
		b := block.NewBuilder(g, addrs[winner], g.Timestamp+time.Duration(wt)*time.Second+300*time.Millisecond, wt, bval).Seal()
		if err := p.ValidateClaim(g, b, l); err != nil {
			t.Fatalf("late-but-honest block rejected: %v", err)
		}
	})
}

func TestExpectedBlockIntervalNearT0(t *testing.T) {
	// Statistical reproduction of eq. (10): with B from eq. (14), the mean
	// winner time across many rounds should be near t0. The derivation
	// uses E(min h) over uniform hits, so we allow a generous band.
	p := Params{M: 1 << 40, T0: 60 * time.Second}
	addrs, _ := testAccounts(20, 12)
	l := NewLedger(addrs)
	bval := p.AmendmentB(l.N(), l.UBar())

	prev := block.Genesis(3)
	total := 0.0
	rounds := 400
	for r := 0; r < rounds; r++ {
		wt := uint64(NeverMines)
		var wa identity.Address
		for i := range addrs {
			if tm := TimeToMine(p.Hit(prev, addrs[i]), l.U(i), bval); tm < wt {
				wt, wa = tm, addrs[i]
			}
		}
		total += float64(wt)
		prev = block.NewBuilder(prev, wa, prev.Timestamp+time.Duration(wt)*time.Second, wt, bval).Seal()
	}
	mean := total / float64(rounds)
	t0 := p.T0.Seconds()
	if mean < t0/4 || mean > t0*4 {
		t.Fatalf("mean block interval %.1f s too far from t0 = %.0f s", mean, t0)
	}
	t.Logf("mean interval %.1f s (t0 = %.0f s)", mean, t0)
}

func TestStakeBiasesWinning(t *testing.T) {
	// A node with much larger U should win far more rounds: the paper's
	// core incentive ("if a node has more token and stores more data, the
	// node will have more advantages to mine blocks").
	p := Params{M: 1 << 40, T0: 60 * time.Second}
	addrs, _ := testAccounts(10, 13)
	l := NewLedger(addrs)
	// Inflate node 0's storage contribution via direct block application.
	g := block.Genesis(4)
	prev := g
	_, ids := testAccounts(10, 13)
	for k := 0; k < 30; k++ {
		b := minedBlock(prev, ids[0], []int{0}, nil, nil)
		if err := l.ApplyBlock(b); err != nil {
			t.Fatal(err)
		}
		prev = b
	}
	wins := make([]int, len(addrs))
	bval := p.AmendmentB(l.N(), l.UBar())
	for r := 0; r < 300; r++ {
		winner, wt := -1, uint64(NeverMines)
		for i := range addrs {
			if tm := TimeToMine(p.Hit(prev, addrs[i]), l.U(i), bval); tm < wt {
				winner, wt = i, tm
			}
		}
		wins[winner]++
		prev = block.NewBuilder(prev, addrs[winner], prev.Timestamp+time.Duration(wt)*time.Second, wt, bval).Seal()
	}
	others := 0
	for i := 1; i < len(wins); i++ {
		others += wins[i]
	}
	if wins[0] <= others {
		t.Fatalf("high-stake node won %d of 300; others %d — stake advantage missing", wins[0], others)
	}
	t.Logf("high-stake node won %d/300 rounds", wins[0])
}
