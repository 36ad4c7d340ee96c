package edgechain_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	edgechain "repro"
)

// figureGolden is what one figure-stack run is pinned by: the highest
// chain and the tip hash of the first node standing on it, and the radio
// accounting every panel of Figs. 4 and 5 is computed from.
type figureGolden struct {
	height  uint64
	tip     string
	txBytes uint64
	kind    map[string]uint64
}

func runFigureStack(t *testing.T, cfg edgechain.Config, d time.Duration) figureGolden {
	t.Helper()
	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(d)
	res := sys.Results()
	got := figureGolden{height: res.ChainHeight, txBytes: res.TotalTxBytes, kind: res.KindBytes}
	for i := 0; i < cfg.NumNodes; i++ {
		if c := sys.Node(i).Chain(); c.Height() == res.ChainHeight {
			got.tip = c.Tip().Hash.String()
			break
		}
	}
	return got
}

// TestFigureStackGolden pins the figure stack (core + netsim + raft on the
// virtual clock) by value, not by run-twice equality: whatever orders
// simultaneous events — block wins, radio deliveries, request timeouts,
// Raft heartbeats, mobility epochs — decides who mines what and which
// bytes cross which hop, so a scheduler that ordered two of them
// differently moves a tip hash or a byte count here. "paper" is the exact
// call bench/probes.go times as core.sim_vmin_per_s; "extensions" adds
// every periodic timer user the stack has (mobility is on by default, plus
// a late joiner, Raft and checkpoints). amd64 only: placement costs are
// floating point.
func TestFigureStackGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values are pinned on amd64")
	}
	ext := edgechain.DefaultConfig(12)
	ext.Seed = 5
	ext.DataRatePerMin = 2
	ext.LateJoiners = map[int]time.Duration{3: 4 * time.Minute}
	ext.EnableRaft = true
	ext.CheckpointInterval = 5

	for _, tc := range []struct {
		name string
		cfg  edgechain.Config
		d    time.Duration
		want figureGolden
	}{
		{name: "paper", cfg: edgechain.DefaultConfig(30), d: 10 * time.Minute, want: figureGolden{
			height:  8,
			tip:     "ed4864936f85f508a12ada346f746525ce394e7960de4b0fc20527f2d30f8553",
			txBytes: 48398178,
			kind:    map[string]uint64{"block": 115213, "ctrl": 12736, "data": 48237440, "meta": 32789},
		}},
		{name: "extensions", cfg: ext, d: 40 * time.Minute, want: figureGolden{
			height:  53,
			tip:     "5c39becceb82d01d24aa7283fe3d434d13dcef398971eb807cac456fd51e5955",
			txBytes: 184214035,
			kind:    map[string]uint64{"block": 245631, "ctrl": 14000, "data": 180366080, "meta": 146676, "raft": 3441648},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runFigureStack(t, tc.cfg, tc.d)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("figure stack moved:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}
