package chain

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
)

func testMiner(seed int64) *identity.Identity {
	return identity.GenerateSeeded(rand.New(rand.NewSource(seed)))
}

// buildChain creates a valid chain of n blocks after genesis, alternating
// between two miners.
func buildChain(t *testing.T, seed int64, n int) []*block.Block {
	t.Helper()
	miners := []*identity.Identity{testMiner(seed), testMiner(seed + 1)}
	blocks := []*block.Block{block.Genesis(seed)}
	for i := 0; i < n; i++ {
		m := miners[i%2]
		prev := blocks[len(blocks)-1]
		blocks = append(blocks, nextBlock(prev, m, time.Duration(i+1)*time.Minute))
	}
	return blocks
}

func nextBlock(prev *block.Block, m *identity.Identity, ts time.Duration) *block.Block {
	return block.NewBuilder(prev, m.Address(), ts, 60, 0.5).Seal()
}

func TestNewChain(t *testing.T) {
	g := block.Genesis(1)
	c := New(g)
	if c.Height() != 0 || c.Len() != 1 || c.Tip() != g || c.Genesis() != g {
		t.Fatal("fresh chain state wrong")
	}
}

func TestAddExtendsTip(t *testing.T) {
	g := block.Genesis(1)
	c := New(g)
	m := testMiner(1)
	b1 := nextBlock(g, m, time.Minute)
	n, err := c.Add(b1)
	if err != nil || n != 1 {
		t.Fatalf("Add: n=%d err=%v", n, err)
	}
	if c.Height() != 1 || c.Tip() != b1 {
		t.Fatal("tip not advanced")
	}
	if c.At(1) != b1 || c.ByHash(b1.Hash) != b1 {
		t.Fatal("lookup failures")
	}
	if c.At(99) != nil || c.ByHash(block.Hash{}) != nil {
		t.Fatal("lookups for unknown blocks must return nil")
	}
}

func TestAddDuplicate(t *testing.T) {
	g := block.Genesis(1)
	c := New(g)
	b1 := nextBlock(g, testMiner(1), time.Minute)
	if _, err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(b1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
	if _, err := c.Add(g); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-adding genesis: err = %v, want ErrDuplicate", err)
	}
}

func TestAddGapBuffersAndDrains(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	b1 := nextBlock(g, m, 1*time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	b3 := nextBlock(b2, m, 3*time.Minute)

	c := New(g)
	// Receive b3 first: gap, buffered.
	if _, err := c.Add(b3); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
	from, to, ok := c.MissingRange()
	if !ok || from != 1 || to != 2 {
		t.Fatalf("MissingRange = [%d,%d] ok=%v, want [1,2] true", from, to, ok)
	}
	// Receive b2: still a gap (missing 1).
	if _, err := c.Add(b2); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
	from, to, ok = c.MissingRange()
	if !ok || from != 1 || to != 1 {
		t.Fatalf("MissingRange = [%d,%d] ok=%v, want [1,1] true", from, to, ok)
	}
	// Receive b1: everything drains.
	n, err := c.Add(b1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("appended %d blocks, want 3", n)
	}
	if c.Height() != 3 || c.Pending() != 0 {
		t.Fatalf("height=%d pending=%d, want 3, 0", c.Height(), c.Pending())
	}
	if _, _, ok := c.MissingRange(); ok {
		t.Fatal("MissingRange reports gap after drain")
	}
}

func TestAddStaleFork(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	other := testMiner(2)
	b1 := nextBlock(g, m, time.Minute)
	alt1 := nextBlock(g, other, time.Minute) // competing block at height 1

	c := New(g)
	if _, err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(alt1); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	if c.Tip() != b1 {
		t.Fatal("stale fork replaced tip")
	}
}

func TestAddRejectsInvalidBlocks(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	c := New(g)

	bad := nextBlock(g, m, time.Minute)
	bad.B = 99 // content change after seal
	if _, err := c.Add(bad); !errors.Is(err, block.ErrBadHash) {
		t.Fatalf("err = %v, want ErrBadHash", err)
	}

	// Valid self-hash but wrong linkage: build from a different genesis.
	g2 := block.Genesis(2)
	wrongParent := nextBlock(g2, m, time.Minute)
	if _, err := c.Add(wrongParent); !errors.Is(err, block.ErrBadLink) {
		t.Fatalf("err = %v, want ErrBadLink", err)
	}
	if c.Height() != 0 {
		t.Fatal("invalid block changed the chain")
	}
}

func TestGapDrainDropsForeignForkBlock(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	other := testMiner(2)
	b1 := nextBlock(g, m, time.Minute)
	// A block at height 2 building on a *different* height-1 block.
	alt1 := nextBlock(g, other, time.Minute)
	alt2 := nextBlock(alt1, other, 2*time.Minute)

	c := New(g)
	if _, err := c.Add(alt2); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want ErrGap", err)
	}
	n, err := c.Add(b1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("appended %d, want 1 (foreign fork block must not drain)", n)
	}
	if c.Pending() != 0 {
		t.Fatal("foreign fork block still pending after failed drain")
	}
}

// TestPendingIsBounded: a peer feeding self-valid blocks far above the tip
// cannot grow the out-of-order buffer past maxPending, a block beyond the
// window is dropped before its content is even read, and the blocks kept are
// the ones nearest the tip, which a gap fill then drains.
func TestPendingIsBounded(t *testing.T) {
	blocks := buildChain(t, 1, 2*pendingWindow)
	c := New(blocks[0])
	// Farthest first, so every later block is nearer than what is parked.
	for i := len(blocks) - 1; i >= 3; i-- {
		if _, err := c.Add(blocks[i]); !errors.Is(err, ErrGap) {
			t.Fatalf("block %d: %v, want ErrGap", i, err)
		}
		if c.Pending() > maxPending {
			t.Fatalf("%d blocks parked after block %d, cap is %d", c.Pending(), i, maxPending)
		}
	}
	if from, to, ok := c.MissingRange(); !ok || from != 1 || to != 2 || c.Pending() != maxPending {
		t.Fatalf("parked %d, missing [%d,%d] %v: want the %d blocks from 3 up", c.Pending(), from, to, ok, maxPending)
	}
	// Nearest first, the farther ones find the buffer full and are refused.
	d := New(blocks[0])
	for _, b := range blocks[2:] {
		d.Add(b)
	}
	if _, kept := d.pending[2+maxPending]; d.Pending() != maxPending || kept {
		t.Fatalf("parked %d of a nearest-first flood, want the %d nearest", d.Pending(), maxPending)
	}
	// Beyond the window nothing is parked and nothing verified: a corrupt
	// block reads as a gap, not as a bad hash.
	corrupt := blocks[pendingWindow+1].Clone()
	corrupt.MinedAfter++
	if _, err := New(blocks[0]).Add(corrupt); !errors.Is(err, ErrGap) {
		t.Fatalf("corrupt block beyond the window: %v, want ErrGap unread", err)
	}
	corrupt = blocks[pendingWindow].Clone()
	corrupt.MinedAfter++
	if _, err := New(blocks[0]).Add(corrupt); errors.Is(err, ErrGap) || err == nil {
		t.Fatalf("corrupt block inside the window: %v, want a validation error", err)
	}
	// Filling the gap drains everything that was kept.
	for _, b := range blocks[1:3] {
		if _, err := c.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	if c.Height() != uint64(2+maxPending) || c.Pending() != 0 {
		t.Fatalf("height %d with %d parked after the gap fill, want %d and 0", c.Height(), c.Pending(), 2+maxPending)
	}
}

func TestValidate(t *testing.T) {
	blocks := buildChain(t, 1, 5)
	if err := Validate(blocks); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := Validate(nil); err == nil {
		t.Fatal("empty chain validated")
	}
	if err := Validate(blocks[1:]); err == nil {
		t.Fatal("chain without genesis validated")
	}
	corrupted := append([]*block.Block(nil), blocks...)
	corrupted[3] = corrupted[3].Clone()
	corrupted[3].Timestamp += time.Hour
	if err := Validate(corrupted); err == nil {
		t.Fatal("corrupted chain validated")
	}
}

func TestLongChainGrowth(t *testing.T) {
	blocks := buildChain(t, 3, 200)
	c := New(blocks[0])
	for _, b := range blocks[1:] {
		if _, err := c.Add(b); err != nil {
			t.Fatalf("Add block %d: %v", b.Index, err)
		}
	}
	if c.Height() != 200 {
		t.Fatalf("height = %d, want 200", c.Height())
	}
}

func TestPreAppendHookVetoes(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	c := New(g)
	vetoed := errors.New("vetoed")
	c.PreAppend = func(prev, b *block.Block) error {
		if b.Index == 2 {
			return vetoed
		}
		return nil
	}
	b1 := nextBlock(g, m, time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	if _, err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(b2); !errors.Is(err, vetoed) {
		t.Fatalf("err = %v, want veto", err)
	}
	if c.Height() != 1 {
		t.Fatal("vetoed block appended")
	}
}

func TestPreAppendHookVetoesDuringDrain(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	c := New(g)
	c.PreAppend = func(prev, b *block.Block) error {
		if b.Index == 2 {
			return errors.New("no")
		}
		return nil
	}
	b1 := nextBlock(g, m, time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	if _, err := c.Add(b2); !errors.Is(err, ErrGap) {
		t.Fatalf("err = %v, want gap", err)
	}
	n, err := c.Add(b1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || c.Height() != 1 {
		t.Fatalf("vetoed buffered block drained: n=%d height=%d", n, c.Height())
	}
	if c.Pending() != 0 {
		t.Fatal("vetoed block still buffered")
	}
}

func TestPostAppendHookOrderAndCoverage(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	c := New(g)
	var seen []uint64
	c.PostAppend = func(b *block.Block) { seen = append(seen, b.Index) }
	b1 := nextBlock(g, m, time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	b3 := nextBlock(b2, m, 3*time.Minute)
	// Out of order: b3 and b2 buffer, b1 drains all.
	c.Add(b3)
	c.Add(b2)
	if _, err := c.Add(b1); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("PostAppend calls = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("PostAppend order = %v, want %v", seen, want)
		}
	}
}
