package pos

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
)

func benchSetup(b *testing.B, n int) (Params, *Ledger, *block.Block) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	accounts := make([]identity.Address, n)
	for i := range accounts {
		accounts[i] = identity.GenerateSeeded(rng).Address()
	}
	return DefaultParams(), NewLedger(accounts), block.Genesis(1)
}

func BenchmarkHit(b *testing.B) {
	p, led, g := benchSetup(b, 1)
	addr := led.Account(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Hit(g, addr)
	}
}

func BenchmarkTimeToMine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		TimeToMine(uint64(i)%DefaultM, 4, 0.37)
	}
}

func BenchmarkValidateClaim(b *testing.B) {
	p, led, g := benchSetup(b, 20)
	bval := p.AmendmentB(led.N(), led.UBar())
	winner, wt := -1, uint64(NeverMines)
	for i := 0; i < led.N(); i++ {
		if tm := TimeToMine(p.Hit(g, led.Account(i)), led.U(i), bval); tm < wt {
			winner, wt = i, tm
		}
	}
	blk := block.NewBuilder(g, led.Account(winner),
		g.Timestamp+time.Duration(wt)*time.Second, wt, bval).Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ValidateClaim(g, blk, led); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLedgerApplyBlock(b *testing.B) {
	p, led, g := benchSetup(b, 50)
	_ = p
	prev := g
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := block.NewBuilder(prev, led.Account(i%led.N()),
			prev.Timestamp+time.Minute, 60, 1).
			SetStoringNodes([]int{i % 50, (i + 1) % 50}).
			SetRecentAssignees([]int{(i + 2) % 50}).
			Seal()
		if err := led.ApplyBlock(blk); err != nil {
			b.Fatal(err)
		}
		prev = blk
	}
}

// BenchmarkNewLedger prices indexing a roster, which every node of a cluster
// does once for the roster they share.
func BenchmarkNewLedger(b *testing.B) {
	for _, n := range []int{64, 256, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			accounts := make([]identity.Address, n)
			for i := range accounts {
				rng.Read(accounts[i][:])
			}
			for i := 0; i < b.N; i++ {
				NewLedger(accounts)
			}
		})
	}
}
