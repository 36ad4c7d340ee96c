package edgechain_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	edgechain "repro"
)

// figureGolden is what one figure-stack run is pinned by: the tallest
// chain's height and tip, the radio bytes every panel of Figs. 4 and 5 is
// computed from, and the transport's event count and digest, which fold
// every send, drop and delivery in order.
type figureGolden struct {
	height  uint64
	tip     string
	txBytes uint64
	events  uint64
	digest  string
}

func runFigureStack(t *testing.T, cfg edgechain.Config, d time.Duration) figureGolden {
	t.Helper()
	res, err := edgechain.RunSimulation(cfg, d)
	if err != nil {
		t.Fatal(err)
	}
	return figureGolden{
		height:  res.ChainHeight,
		tip:     res.Tip.String(),
		txBytes: res.TotalTxBytes,
		events:  res.Events,
		digest:  fmt.Sprintf("%016x", res.EventDigest),
	}
}

// TestFigureStackGolden pins the figure stack (livenode on the radio field
// under the virtual clock) by value, not by run-twice equality: whatever
// orders simultaneous events — block wins, radio deliveries, fetch
// timeouts, mobility epochs — decides who mines what and which bytes cross
// which hop, so a scheduler that ordered two of them differently moves a
// tip hash, a byte count or the digest here. "paper" is the exact call
// bench/probes.go times; "extensions" adds the engine-rule variants the
// ablations use (the FDC weight) at twice the data rate.
// amd64 only: placement costs are floating point.
//
// Re-pinned once for short-ID compact references (DESIGN.md §13.1): a
// compact block names each item by its 8-byte short ID instead of its
// 32-byte data ID, so txBytes and the digest (which folds frame sizes in)
// move; heights, tips and event counts do not.
//
// Re-pinned once: bindings from the hello (DESIGN.md §11.1). Every link's
// hello names its ends by roster index, so a placement fetch asks the
// producer and a read the nearest storer from the first block on, where each
// used to broadcast a 1 MB-answered request until the addresses were learned:
// radio bytes fall 191 038 728 → 70 430 073 ("paper") and 246 724 388 →
// 234 131 780 ("extensions"), events 8 561 → 6 963 and 10 092 → 9 582.
// Heights and tips do not move.
//
// Re-pinned once: metadata items open with a flags byte (DESIGN.md §17), so
// an absent location, name, properties or storing-node list costs nothing
// and the key and signature lose their length bytes. Canonical bytes do not
// change: radio bytes fall 70 430 073 → 70 419 308 ("paper") and
// 234 131 780 → 234 113 578 ("extensions"), the digest moves with the frame
// sizes, and heights, tips and event counts stay.
//
// Re-pinned once: data migration is gone, so "extensions" no longer sets it
// and runs as it always did with migration off (at 0 the engine never read
// or wrote its state). The values are those of the old code with migration
// off, which proves deletion equals off: height 41 stays, the tip moves,
// radio bytes fall 234 113 578 → 219 430 531 and events 9 582 → 9 464 with
// the re-announcements gone. "paper" never set it and does not move.
//
// Re-pinned once: one read path (DESIGN.md §11.1). A holder without the
// bytes answers with the bare ID, and a fetch whose walk runs out ends
// instead of broadcasting and waiting two minutes; a storer's own copy walks
// again after one mobility epoch. In "paper" the broadcasts of walks that ran
// out go (no holder in reach answered them) and 37-byte nacks come in: radio
// bytes fall 70 419 308 → 70 413 280 and events 6 963 → 6 763. Height and
// tip stay. "extensions" does not move.
//
// Re-pinned once: the metadata plane's backup announce is gone (the next
// block is its backup, DESIGN.md §15.1), and a push that cannot reach a tree
// neighbour sends to that neighbour's other tree neighbours instead (§13).
// Every frame not sent shifts memnet's one delay RNG, so later frames draw
// other delays. Heights and tips stay. Events fall 6 763 → 5 463 ("paper")
// and 9 464 → 5 718 ("extensions"). Radio bytes fall 219 430 531 →
// 219 412 775 in "extensions" and rise 70 413 280 → 71 454 933 in "paper":
// there metadata bytes fall 69 639 → 63 770 and block bytes 36 585 → 32 772,
// but the re-drawn delays cost the data plane one more 1 MB answer.
func TestFigureStackGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values are pinned on amd64")
	}
	ext := edgechain.DefaultConfig(12)
	ext.Seed = 5
	ext.DataRatePerMin = 2
	ext.FDCWeight = 100

	for _, tc := range []struct {
		name string
		cfg  edgechain.Config
		d    time.Duration
		want figureGolden
	}{
		{name: "paper", cfg: edgechain.DefaultConfig(30), d: 10 * time.Minute, want: figureGolden{
			height: 6, tip: "6a31a38f529cd6acf1cdf7f2c98d193dd142a8a0bd83b85a5ecdea830ccb95a5",
			txBytes: 71454933, events: 5463, digest: "b53966ca561bab18",
		}},
		{name: "extensions", cfg: ext, d: 40 * time.Minute, want: figureGolden{
			height: 41, tip: "7795bf054512a99b724bf2ad332ed62d05b6e4adc97f52b11ea5e5245776af95",
			txBytes: 219412775, events: 5718, digest: "13e3d672eb697ec1",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runFigureStack(t, tc.cfg, tc.d)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("figure stack moved:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}
