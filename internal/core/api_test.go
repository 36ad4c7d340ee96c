package core

import (
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/workload"
)

func TestConfigValidateTable(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero nodes":       func(c *Config) { c.NumNodes = 0 },
		"zero range":       func(c *Config) { c.CommRange = 0 },
		"zero storage":     func(c *Config) { c.StorageCapacity = 0 },
		"zero data size":   func(c *Config) { c.DataSize = 0 },
		"negative rate":    func(c *Config) { c.DataRatePerMin = -1 },
		"bad fraction":     func(c *Config) { c.RequesterFraction = 1.5 },
		"bad placement":    func(c *Config) { c.Placement = 0 },
		"bad consensus":    func(c *Config) { c.Consensus = 0 },
		"pow no hash rate": func(c *Config) { c.Consensus = ConsensusPoW; c.HashRate = 0 },
		"bad pos M":        func(c *Config) { c.PoS.M = 0 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(10)
			mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatalf("%s accepted", name)
			}
		})
	}
	good := DefaultConfig(10)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEnumStrings(t *testing.T) {
	if ConsensusPoS.String() != "pos" || ConsensusPoW.String() != "pow" {
		t.Fatal("consensus strings wrong")
	}
	if ConsensusAlgo(0).String() != "unknown" {
		t.Fatal("unknown consensus string wrong")
	}
	if PlaceOptimal.String() != "optimal" || PlaceRandom.String() != "random" {
		t.Fatal("placement strings wrong")
	}
	if PlacementStrategy(0).String() != "unknown" {
		t.Fatal("unknown placement string wrong")
	}
}

func TestProduceAndRequestDataAPI(t *testing.T) {
	cfg := quickConfig(10, 51)
	cfg.DataRatePerMin = 0
	cfg.MobilityEpoch = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var produced *meta.Item
	sys.Clock().AfterFunc(time.Second, func() {
		produced = sys.ProduceData(2, "Test/Item")
	})
	// Request it from another node once it's on chain.
	sys.Clock().AfterFunc(3*time.Minute, func() {
		if !sys.Node(7).RequestData(produced.ID) {
			t.Error("RequestData could not find the item")
		}
		if sys.Node(7).RequestData(meta.DataID{}) {
			t.Error("RequestData found a nonexistent item")
		}
	})
	sys.Run(5 * time.Minute)
	if produced == nil {
		t.Fatal("ProduceData did not run")
	}
	// In an empty network the FDC is zero everywhere, so the single item
	// replicates to every node: the "requester" already stores it and the
	// request short-circuits. Either way it must end up holding the data.
	if !sys.Node(7).HasData(produced.ID) {
		t.Fatal("requester does not report holding the data")
	}
	if sys.Node(2).ID() != 2 || sys.Node(2).Address().IsZero() {
		t.Fatal("node identity accessors broken")
	}
}

func TestFindMetadataOnChain(t *testing.T) {
	cfg := quickConfig(10, 52)
	cfg.DataRatePerMin = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Clock().AfterFunc(time.Second, func() {
		sys.ProduceData(1, "AirQuality/PM2.5")
		sys.ProduceData(3, "Picture/Traffic")
	})
	sys.Run(4 * time.Minute)
	air := sys.Node(5).FindMetadata(meta.Query{TypePrefix: "AirQuality/"})
	if len(air) != 1 {
		t.Fatalf("found %d air-quality items, want 1", len(air))
	}
	all := sys.Node(5).FindMetadata(meta.Query{})
	if len(all) != 2 {
		t.Fatalf("found %d items, want 2", len(all))
	}
}

func TestTraceDrivenWorkload(t *testing.T) {
	cfg := quickConfig(10, 53)
	trace, err := workload.Generate(workload.Config{
		Duration:        20 * time.Minute,
		RatePerMin:      2,
		NumNodes:        10,
		Requesters:      []int{4, 7},
		RequestsPerItem: 1,
		Seed:            9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = trace
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(25 * time.Minute)
	res := sys.Results()
	if res.DataGenerated != trace.Len() {
		t.Fatalf("generated %d items, trace has %d", res.DataGenerated, trace.Len())
	}
	if res.Delivery.Count == 0 {
		t.Fatal("trace requesters never got data")
	}
	// Replaying the identical trace yields identical data counts.
	sys2, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(25 * time.Minute)
	if sys2.Results().DataGenerated != res.DataGenerated {
		t.Fatal("trace replay diverged")
	}
}

func TestPlacementDriftBounds(t *testing.T) {
	cfg := quickConfig(12, 54)
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Minute)
	// Drift hovers around or above 1; it can dip slightly below when an
	// old assignment happens to beat the greedy "optimal" on current-state costs.
	d := sys.PlacementDrift(0)
	if d < 0.5 {
		t.Fatalf("drift %v implausibly small", d)
	}
	if d > 10 {
		t.Fatalf("drift %v implausibly large", d)
	}
	// View assignments are exposed for every live item.
	n := sys.Node(0)
	for id, it := range n.eng.LiveItems() {
		if got := n.eng.View().Assignment(id); len(got) == 0 && !it.Expired(sys.Clock().Elapsed()) {
			t.Fatalf("live item %s has no view assignment", id.Short())
		}
	}
}
