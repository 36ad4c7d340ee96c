package core

import (
	"testing"
	"time"

	"repro/internal/netsim"
)

// quickConfig returns a small, fast configuration for integration tests.
func quickConfig(n int, seed int64) Config {
	cfg := DefaultConfig(n)
	cfg.Seed = seed
	cfg.DataRatePerMin = 2
	cfg.PoS.T0 = 30 * time.Second
	return cfg
}

func TestSystemValidation(t *testing.T) {
	cfg := DefaultConfig(0)
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = DefaultConfig(5)
	cfg.Placement = 0
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("unset placement accepted")
	}
}

func TestSystemMinesBlocksNearExpectedRate(t *testing.T) {
	cfg := quickConfig(15, 1)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dur := 20 * time.Minute
	sys.Run(dur)
	res := sys.Results()
	// t0 = 30 s over 20 min -> ~40 blocks expected; the derivation is
	// approximate, so accept a wide band.
	if res.ChainHeight < 10 || res.ChainHeight > 160 {
		t.Fatalf("chain height %d wildly off expectation (~40)", res.ChainHeight)
	}
	t.Logf("height=%d mined=%d data=%d", res.ChainHeight, res.BlocksMined, res.DataGenerated)
}

func TestSystemAllNodesConverge(t *testing.T) {
	cfg := quickConfig(12, 2)
	cfg.MobilityEpoch = 0 // static topology: everyone stays connected
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Minute)
	tip := sys.Node(0).Chain().Tip()
	for i := 1; i < cfg.NumNodes; i++ {
		other := sys.Node(i).Chain().Tip()
		if other.Hash != tip.Hash {
			t.Fatalf("node %d tip %s != node 0 tip %s (heights %d vs %d)",
				i, other.Hash.Short(), tip.Hash.Short(),
				sys.Node(i).Chain().Height(), sys.Node(0).Chain().Height())
		}
	}
}

func TestSystemDataFlow(t *testing.T) {
	cfg := quickConfig(15, 3)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * time.Minute)
	res := sys.Results()
	if res.DataGenerated == 0 {
		t.Fatal("no data generated")
	}
	if res.Delivery.Count == 0 {
		t.Fatal("no deliveries recorded: requesters never got data")
	}
	if res.Delivery.Mean <= 0 || res.Delivery.Mean > 10 {
		t.Fatalf("mean delivery %v s implausible", res.Delivery.Mean)
	}
	// Data must actually be replicated onto assigned nodes.
	stored := 0
	for i := 0; i < cfg.NumNodes; i++ {
		stored += len(sys.Node(i).dataStore)
	}
	if stored == 0 {
		t.Fatal("no proactive data storage happened")
	}
	if res.KindBytes["data"] == 0 || res.KindBytes["block"] == 0 || res.KindBytes["meta"] == 0 {
		t.Fatalf("traffic kinds missing: %v", res.KindBytes)
	}
	t.Logf("delivery mean %.2fs over %d samples; gini %.3f; avg tx %.1f MB",
		res.Delivery.Mean, res.Delivery.Count, res.StorageGini,
		res.AvgTxBytesPerNode/(1<<20))
}

func TestSystemDeterministic(t *testing.T) {
	run := func() *Results {
		sys, err := NewSystem(quickConfig(10, 7))
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(10 * time.Minute)
		return sys.Results()
	}
	a, b := run(), run()
	if a.ChainHeight != b.ChainHeight || a.TotalTxBytes != b.TotalTxBytes ||
		a.DataGenerated != b.DataGenerated || a.Delivery.Count != b.Delivery.Count {
		t.Fatalf("same seed diverged:\n a=%+v\n b=%+v", a, b)
	}
}

func TestSystemStorageFairness(t *testing.T) {
	cfg := quickConfig(20, 4)
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * time.Minute)
	res := sys.Results()
	// Paper: Gini below 0.15 for equal-capacity nodes. Short runs are
	// noisier than the paper's 500 min, so allow some slack.
	if res.StorageGini > 0.35 {
		t.Fatalf("storage Gini %.3f far above the paper's <0.15 claim", res.StorageGini)
	}
	t.Logf("gini %.3f, storage counts %v", res.StorageGini, res.StorageCounts)
}

func TestSystemLateJoinerSyncs(t *testing.T) {
	cfg := quickConfig(10, 5)
	cfg.MobilityEpoch = 0
	cfg.LateJoiners = map[int]time.Duration{3: 10 * time.Minute}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20 * time.Minute)
	joiner := sys.Node(3).Chain().Height()
	reference := sys.Node(0).Chain().Height()
	if joiner == 0 {
		t.Fatal("late joiner never synced")
	}
	if diff := int64(reference) - int64(joiner); diff > 2 || diff < -2 {
		t.Fatalf("late joiner at height %d, network at %d", joiner, reference)
	}
}

func TestSystemNodeOutageRecovers(t *testing.T) {
	cfg := quickConfig(10, 6)
	cfg.MobilityEpoch = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Knock node 4 out between minutes 5 and 12.
	sys.Clock().AfterFunc(5*time.Minute, func() {
		sys.Network().SetDown(netsim.NodeID(4), true)
	})
	sys.Clock().AfterFunc(12*time.Minute, func() {
		sys.Network().SetDown(netsim.NodeID(4), false)
	})
	sys.Run(25 * time.Minute)
	down := sys.Node(4).Chain().Height()
	ref := sys.Node(0).Chain().Height()
	if diff := int64(ref) - int64(down); diff > 2 || diff < -2 {
		t.Fatalf("outage node at height %d, network at %d (gap recovery failed)", down, ref)
	}
	t.Logf("gap recoveries: %d, fork replacements: %d",
		sys.Results().GapRecoveries, sys.Results().ForkReplacements)
}

func TestSystemPartitionHeals(t *testing.T) {
	cfg := quickConfig(12, 8)
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0 // isolate consensus behaviour
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Partition nodes {0..5} from {6..11} between minutes 4 and 10.
	blocked := func(a, b netsim.NodeID) bool {
		return (a < 6) != (b < 6)
	}
	sys.Clock().AfterFunc(4*time.Minute, func() { sys.Network().SetLinkFilter(blocked) })
	sys.Clock().AfterFunc(10*time.Minute, func() { sys.Network().SetLinkFilter(nil) })
	sys.Run(25 * time.Minute)
	tip := sys.Node(0).Chain().Tip()
	for i := 1; i < cfg.NumNodes; i++ {
		if sys.Node(i).Chain().Tip().Hash != tip.Hash {
			t.Fatalf("node %d did not converge after partition heal (height %d vs %d)",
				i, sys.Node(i).Chain().Height(), sys.Node(0).Chain().Height())
		}
	}
	t.Logf("fork replacements: %d", sys.Results().ForkReplacements)
}

func TestSystemRandomPlacementRuns(t *testing.T) {
	cfg := quickConfig(12, 9)
	cfg.Placement = PlaceRandom
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(15 * time.Minute)
	res := sys.Results()
	if res.ChainHeight == 0 || res.Placement != PlaceRandom {
		t.Fatalf("random-placement run broken: %+v", res)
	}
}

func TestSystemWithRaftOverhead(t *testing.T) {
	cfg := quickConfig(8, 10)
	cfg.EnableRaft = true
	cfg.DataRatePerMin = 0
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(10 * time.Minute)
	res := sys.Results()
	if res.KindBytes["raft"] == 0 {
		t.Fatal("raft enabled but no raft traffic recorded")
	}
	// Some node must have become leader.
	leaders := 0
	for i := 0; i < cfg.NumNodes; i++ {
		if r := sys.Node(i).Raft(); r != nil && r.Leader() >= 0 {
			leaders++
		}
	}
	if leaders == 0 {
		t.Fatal("no node knows a raft leader")
	}
	t.Logf("raft bytes: %d", res.KindBytes["raft"])
}

func TestSystemRequesterCount(t *testing.T) {
	cfg := quickConfig(30, 11)
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Requesters()); got != 3 {
		t.Fatalf("%d requesters for 30 nodes at 10%%, want 3", got)
	}
}

func TestSystemDataExpiryReleasesStorage(t *testing.T) {
	cfg := quickConfig(10, 12)
	cfg.DataValidFor = 5 * time.Minute
	cfg.DataRatePerMin = 3
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30 * time.Minute)
	// With a 5-minute lifetime, stored data counts must stay bounded well
	// below the total generated.
	live := 0
	for i := 0; i < cfg.NumNodes; i++ {
		live += len(sys.Node(i).dataStore)
	}
	res := sys.Results()
	if res.DataGenerated < 30 {
		t.Skipf("only %d items generated", res.DataGenerated)
	}
	// Each item is replicated ~2-4x; without expiry live would be about
	// replicas*generated. Expiry keeps only the last ~5 minutes alive.
	if live > res.DataGenerated {
		t.Fatalf("%d live stored items for %d generated; expiry not working", live, res.DataGenerated)
	}
}
