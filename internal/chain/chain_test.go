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

// TestAddGapRefusedUnread: a block above tip+1 is refused with ErrGap
// before any of it is read — a corrupt one reads as a gap, not as a bad hash —
// and nothing is buffered: the block that fills the gap appends alone, and
// the blocks above it must come again.
func TestAddGapRefusedUnread(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	b1 := nextBlock(g, m, 1*time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	b3 := nextBlock(b2, m, 3*time.Minute)

	c := New(g)
	if n, err := c.Add(b3); n != 0 || !errors.Is(err, ErrGap) {
		t.Fatalf("b3 first: n=%d err=%v, want 0 and ErrGap", n, err)
	}
	corrupt := b2.Clone()
	corrupt.B = 99 // content change after seal
	if _, err := c.Add(corrupt); !errors.Is(err, ErrGap) {
		t.Fatalf("corrupt block above the tip: %v, want ErrGap unread", err)
	}
	if n, err := c.Add(b1); n != 1 || err != nil || c.Height() != 1 {
		t.Fatalf("b1: n=%d err=%v height=%d, want 1, nil, 1 (nothing buffered to drain)", n, err, c.Height())
	}
	for _, b := range []*block.Block{b2, b3} {
		if n, err := c.Add(b); n != 1 || err != nil {
			t.Fatalf("block %d in order: n=%d err=%v", b.Index, n, err)
		}
	}
	if c.Height() != 3 {
		t.Fatalf("height %d, want 3", c.Height())
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

func TestPostAppendHookOrderAndCoverage(t *testing.T) {
	g := block.Genesis(1)
	m := testMiner(1)
	c := New(g)
	var seen []uint64
	c.PostAppend = func(b *block.Block) { seen = append(seen, b.Index) }
	b1 := nextBlock(g, m, time.Minute)
	b2 := nextBlock(b1, m, 2*time.Minute)
	b3 := nextBlock(b2, m, 3*time.Minute)
	for _, b := range []*block.Block{b1, b2, b3} {
		if _, err := c.Add(b); err != nil {
			t.Fatal(err)
		}
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
