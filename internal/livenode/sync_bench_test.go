package livenode

import (
	"fmt"
	"testing"
	"time"
)

// catchupStats is one measured catch-up exchange: what crossed the wire and
// how many blocks the lagging node had to process to reach the tip.
type catchupStats struct {
	wireBytes  int64
	wireFrames int64
	processed  uint64 // blocks verified/replayed by the lagging node
}

// catchupFixture is a two-node fabric where node "a" mines and node "b"
// lags behind by a controlled gap, then catches up through the incremental
// batched path.
type catchupFixture struct {
	fn   *fakeNet
	a, b *syncTestNode
}

func newCatchupFixture(tb testing.TB, prefixLen int) *catchupFixture {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	noSnapshotOverride := func(cfg *Config) { cfg.SnapshotEvery = 0 } // default (32)
	a := newSyncTestNode(tb, fn, "a", 0, epoch, noSnapshotOverride)
	b := newSyncTestNode(tb, fn, "b", 1, epoch, noSnapshotOverride)
	if err := b.Connect("a"); err != nil {
		tb.Fatal(err)
	}
	// b follows a block-by-block while connected, so after the prefix both
	// sit at the same height with warm snapshots.
	a.mineBlocks(tb, prefixLen)
	if a.Height() != b.Height() {
		tb.Fatalf("fixture skew: a=%d b=%d", a.Height(), b.Height())
	}
	return &catchupFixture{fn: fn, a: a, b: b}
}

// lag mines gap more blocks on a while every frame to b is lost.
func (f *catchupFixture) lag(tb testing.TB, gap int) {
	f.fn.setDrop(func(from, to string, ft byte) bool { return to == "b" })
	f.a.mineBlocks(tb, gap)
	f.fn.setDrop(nil)
	if f.a.Height() != f.b.Height()+uint64(gap) {
		tb.Fatalf("lag fixture skew: a=%d b=%d gap=%d", f.a.Height(), f.b.Height(), gap)
	}
}

// catchup runs one measured sync exchange and asserts b reaches a's tip.
// The whole exchange is synchronous on the fake fabric, so when the trigger
// call returns the adoption is complete.
func (f *catchupFixture) catchup(tb testing.TB) catchupStats {
	replayedBefore := counter(f.b.reg, "livenode.sync.blocks_replayed") +
		counter(f.b.reg, "livenode.sync.blocks_fetched")
	f.fn.startCounting()
	f.b.sendSyncLocator("a")
	bytes, frames := f.fn.stopCounting()
	if f.b.Height() != f.a.Height() {
		tb.Fatalf("catch-up incomplete: a=%d b=%d", f.a.Height(), f.b.Height())
	}
	processed := counter(f.b.reg, "livenode.sync.blocks_replayed") +
		counter(f.b.reg, "livenode.sync.blocks_fetched") - replayedBefore
	return catchupStats{wireBytes: bytes, wireFrames: frames, processed: processed}
}

// BenchmarkSyncCatchup measures a 10-block-lagging node catching up against
// 1k- and 10k-block chains. Custom metrics report the wire and replay cost
// per exchange; see EXPERIMENTS.md for a run.
func BenchmarkSyncCatchup(b *testing.B) {
	const gap = 10
	for _, chainLen := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("chain=%d/lag=%d", chainLen, gap), func(b *testing.B) {
			f := newCatchupFixture(b, chainLen-gap)
			var total catchupStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.lag(b, gap)
				b.StartTimer()
				st := f.catchup(b)
				b.StopTimer()
				total.wireBytes += st.wireBytes
				total.wireFrames += st.wireFrames
				total.processed += st.processed
				b.StartTimer()
			}
			b.ReportMetric(float64(total.wireBytes)/float64(b.N), "wire-B/op")
			b.ReportMetric(float64(total.wireFrames)/float64(b.N), "frames/op")
			b.ReportMetric(float64(total.processed)/float64(b.N), "blocks-processed/op")
		})
	}
}

// TestSyncCatchupWireGate is the benchmark's acceptance gate in regular-test
// form, scaled down so CI pays seconds, not minutes: on a 300-block chain a
// 10-block-lagging node catches up in at most 3 300 wire bytes and processes
// exactly the 10 blocks it lacks — the cost does not depend on chain length.
// The ceiling is the 2 613 B this exchange measures plus a quarter (3 484 B
// in the fixed-width form, where the whole chain shipped in one frame read
// 67 432 B and 300 blocks).
func TestSyncCatchupWireGate(t *testing.T) {
	const chainLen, gap = 300, 10
	f := newCatchupFixture(t, chainLen-gap)
	f.lag(t, gap)
	st := f.catchup(t)
	t.Logf("chain=%d lag=%d: %d B in %d frames, %d blocks processed", chainLen, gap, st.wireBytes, st.wireFrames, st.processed)
	if st.wireBytes > 3300 {
		t.Errorf("catch-up moved %d wire bytes, want <= 3300", st.wireBytes)
	}
	if st.processed != gap {
		t.Errorf("catch-up processed %d blocks, want exactly %d", st.processed, gap)
	}
}
