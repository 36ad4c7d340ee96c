package block

import (
	"testing"
	"time"

	"repro/internal/meta"
)

func benchBlock(b *testing.B) *Block {
	b.Helper()
	g := Genesis(1)
	miner := testIdentity(1)
	producer := testIdentity(2)
	bld := NewBuilder(g, miner.Address(), time.Minute, 60, 0.5)
	for i := 0; i < 3; i++ {
		it := signedItem(b, producer, string(rune('a'+i)))
		it.StoringNodes = []int{1, 2}
		bld.AddItem(it)
	}
	return bld.SetStoringNodes([]int{1, 2}).SetRecentAssignees([]int{3}).Seal()
}

func BenchmarkSeal(b *testing.B) {
	blk := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Seal()
	}
}

func BenchmarkVerifySelf(b *testing.B) {
	blk := benchBlock(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.VerifySelf(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifySelfWarm is VerifySelf through a cache that has seen the
// block's items: the block hash plus one key hash per item, no ed25519.
func BenchmarkVerifySelfWarm(b *testing.B) {
	blk := benchBlock(b)
	var sigs meta.SigCache
	if err := blk.VerifySelfCached(&sigs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := blk.VerifySelfCached(&sigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNextPoSHash(b *testing.B) {
	blk := benchBlock(b)
	addr := testIdentity(3).Address()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.NextPoSHash(addr)
	}
}
