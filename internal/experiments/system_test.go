package experiments

import (
	"slices"
	"testing"
	"time"

	"repro/internal/livenode"
	"repro/internal/meta"
)

// quickConfig returns a small, fast deployment for integration tests.
func quickConfig(n int, seed int64) Config {
	cfg := DefaultConfig(n)
	cfg.Seed = seed
	cfg.DataRatePerMin = 2
	cfg.T0 = 30 * time.Second
	return cfg
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Close)
	return sys
}

func TestConfigValidateTable(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero nodes":     func(c *Config) { c.NumNodes = 0 },
		"zero range":     func(c *Config) { c.CommRange = 0 },
		"zero storage":   func(c *Config) { c.StorageCapacity = 0 },
		"zero data size": func(c *Config) { c.DataSize = 0 },
		"negative rate":  func(c *Config) { c.DataRatePerMin = -1 },
		"bad fraction":   func(c *Config) { c.RequesterFraction = 1.5 },
		"zero t0":        func(c *Config) { c.T0 = 0 },
		"bad placement":  func(c *Config) { c.Placement = 9 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(10)
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("%s accepted", name)
			}
			if _, err := NewSystem(cfg); err == nil {
				t.Fatalf("NewSystem accepted %s", name)
			}
		})
	}
	good := DefaultConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if PlaceOptimal.String() != "optimal" || PlaceRandom.String() != "random" {
		t.Fatal("placement strings wrong")
	}
}

func TestSystemMinesBlocksNearExpectedRate(t *testing.T) {
	sys := newSystem(t, quickConfig(15, 1))
	sys.Run(20 * time.Minute)
	res := sys.Results()
	// t0 = 30 s over 20 min -> ~40 blocks expected; the derivation is
	// approximate, so accept a wide band.
	if res.ChainHeight < 10 || res.ChainHeight > 160 {
		t.Fatalf("chain height %d wildly off expectation (~40)", res.ChainHeight)
	}
}

func TestSystemAllNodesConverge(t *testing.T) {
	cfg := quickConfig(12, 2)
	cfg.MobilityEpoch = 0 // static topology: everyone stays connected
	sys := newSystem(t, cfg)
	sys.Run(15 * time.Minute)
	if err := sys.Cluster().Settle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cluster().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemDataFlow(t *testing.T) {
	cfg := quickConfig(15, 3)
	sys := newSystem(t, cfg)
	sys.Run(30 * time.Minute)
	res := sys.Results()
	if res.DataGenerated == 0 || res.OnChain == 0 {
		t.Fatalf("%d items generated, %d on the chain", res.DataGenerated, res.OnChain)
	}
	if res.Deliveries == 0 || res.Requests < res.Deliveries {
		t.Fatalf("%d deliveries for %d reads: requesters never got data", res.Deliveries, res.Requests)
	}
	if res.DeliverySec <= 0 || res.DeliverySec > 10 {
		t.Fatalf("mean delivery %v s implausible", res.DeliverySec)
	}
	// Data must actually be replicated onto the assigned nodes.
	held := 0
	for _, it := range liveItems(sys.Node(0).ChainSnapshot()) {
		for _, s := range it.StoringNodes {
			if sys.Node(s).HasData(it.ID) {
				held++
			}
		}
	}
	if held == 0 {
		t.Fatal("no proactive data storage happened")
	}
	// A 1 MB item crosses the radio for every replica and read.
	if res.TotalTxBytes < uint64(held)*uint64(cfg.DataSize) {
		t.Fatalf("%d B sent for %d stored replicas of %d B", res.TotalTxBytes, held, cfg.DataSize)
	}
}

func TestSystemDeterministic(t *testing.T) {
	run := func() *Results {
		sys := newSystem(t, quickConfig(10, 7))
		sys.Run(10 * time.Minute)
		return sys.Results()
	}
	a, b := run(), run()
	if a.EventDigest != b.EventDigest || a.Events != b.Events || a.Tip != b.Tip ||
		a.TotalTxBytes != b.TotalTxBytes || a.Deliveries != b.Deliveries {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
}

func TestSystemStorageFairness(t *testing.T) {
	cfg := quickConfig(20, 4)
	cfg.DataRatePerMin = 3
	sys := newSystem(t, cfg)
	sys.Run(30 * time.Minute)
	res := sys.Results()
	// Paper: Gini below 0.15 for equal-capacity nodes. Short runs are
	// noisier than the paper's 500 min, so allow some slack.
	if res.StorageGini > 0.35 {
		t.Fatalf("storage Gini %.3f far above the paper's <0.15 claim (%v)", res.StorageGini, res.StorageCounts)
	}
}

func TestSystemRandomPlacementRuns(t *testing.T) {
	cfg := quickConfig(12, 9)
	cfg.Placement = PlaceRandom
	sys := newSystem(t, cfg)
	sys.Run(15 * time.Minute)
	res := sys.Results()
	if res.ChainHeight == 0 || res.OnChain == 0 || res.Placement != PlaceRandom {
		t.Fatalf("random-placement run broken: %+v", res)
	}
}

func TestSystemNodeOutageRecovers(t *testing.T) {
	cfg := quickConfig(10, 6)
	cfg.MobilityEpoch = 0
	sys := newSystem(t, cfg)
	c := sys.Cluster()
	// Node 4 is down between minutes 5 and 12.
	sys.Clock().AfterFunc(5*time.Minute, func() {
		if err := c.Crash(4); err != nil {
			t.Error(err)
		}
	})
	sys.Clock().AfterFunc(12*time.Minute, func() {
		if err := c.Restart(4); err != nil {
			t.Error(err)
		}
	})
	sys.Run(25 * time.Minute)
	if err := c.Settle(time.Minute); err != nil {
		t.Fatal(err)
	}
	if h := sys.Node(4).Height(); h < 10 {
		t.Fatalf("restarted node at height %d", h)
	}
}

func TestSystemPartitionHeals(t *testing.T) {
	cfg := quickConfig(12, 8)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0 // isolate consensus behaviour
	sys := newSystem(t, cfg)
	c := sys.Cluster()
	// Nodes 0-5 and 6-11 cannot hear each other between minutes 4 and 10.
	sys.Clock().AfterFunc(4*time.Minute, func() { c.Partition([]int{0, 1, 2, 3, 4, 5}, []int{6, 7, 8, 9, 10, 11}) })
	split := false
	sys.Clock().AfterFunc(10*time.Minute, func() {
		split = sys.Node(0).Tip().Hash != sys.Node(6).Tip().Hash
		c.Heal()
	})
	sys.Run(25 * time.Minute)
	if !split {
		t.Fatal("the two halves agreed on a tip through the partition")
	}
	if err := c.Settle(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestProduceAndRequestDataAPI(t *testing.T) {
	cfg := quickConfig(10, 51)
	cfg.MobilityEpoch = 0
	sys := newSystem(t, cfg)
	// In an empty network the FDC is zero everywhere and an item goes to
	// every node; ten minutes of workload put storage in use.
	sys.Run(10 * time.Minute)
	it, err := sys.ProduceData(2, "Test/Item")
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(3 * time.Minute)
	placed := liveItems(sys.Node(7).ChainSnapshot())[it.ID]
	if placed == nil {
		t.Fatal("item not on node 7's chain after three minutes")
	}
	// A node neither producing nor storing the item reads it.
	reader := slices.IndexFunc(sys.Cluster().Nodes(), func(n *livenode.Node) bool {
		return !n.HasData(it.ID)
	})
	if reader < 0 {
		t.Fatalf("every node stores the item (%v)", placed.StoringNodes)
	}
	before := sys.Results().Deliveries
	sys.Node(reader).RequestData(it.ID)
	sys.Run(time.Minute)
	if !sys.Node(reader).HasData(it.ID) {
		t.Fatalf("reader %d does not hold the data", reader)
	}
	if after := sys.Results().Deliveries; after <= before {
		t.Fatalf("read not counted: %d deliveries before, %d after", before, after)
	}
}

func TestFindMetadataOnChain(t *testing.T) {
	cfg := quickConfig(10, 52)
	cfg.DataRatePerMin = 0
	sys := newSystem(t, cfg)
	for _, p := range []struct {
		node int
		typ  string
	}{{1, "AirQuality/PM2.5"}, {3, "Picture/Traffic"}} {
		if _, err := sys.ProduceData(p.node, p.typ); err != nil {
			t.Fatal(err)
		}
	}
	sys.Run(4 * time.Minute)
	if air := sys.FindMetadata(5, meta.Query{TypePrefix: "AirQuality/"}); len(air) != 1 {
		t.Fatalf("found %d air-quality items, want 1", len(air))
	}
	if all := sys.FindMetadata(5, meta.Query{}); len(all) != 2 {
		t.Fatalf("found %d items, want 2", len(all))
	}
}
