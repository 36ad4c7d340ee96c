package engine_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
)

// TestDifferentialSimVsLive drives the same 5-node scenario through both
// engine adapters — the discrete-event simulation (internal/core) and the
// live node over the in-memory transport (internal/livenode via the chaos
// harness) — with identical engine inputs: same roster key pairs, same
// genesis seed, same PoS parameters, same storage capacity, a 1-hop
// clique topology and instant message delivery on both sides. Because all
// consensus decisions live in the shared engine, the two stacks must
// produce bit-identical chains: same tip hash and the same per-account
// S_i/Q_i ledgers.
func TestDifferentialSimVsLive(t *testing.T) {
	const (
		seed    = int64(1)
		n       = 5
		horizon = 20 * time.Minute
	)

	cfg := core.DefaultConfig(n)
	cfg.Seed = seed
	cfg.CommRange = 1000 // every pair 1 hop — the live mesh's clique
	cfg.MobilityRange = 0
	cfg.MobilityEpoch = 0
	cfg.DataRatePerMin = 0 // workload is injected manually below
	cfg.RequesterFraction = 0
	cfg.Net = netsim.Config{} // instant delivery, like the fault-free memnet
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cluster, err := chaos.NewCluster(chaos.Options{
		N:               n,
		Seed:            seed,
		T0:              cfg.PoS.T0,
		Identities:      sys.Identities(), // same key pairs as the sim roster
		GenesisSeed:     seed,             // sim genesis is block.Genesis(cfg.Seed)
		StorageCapacity: cfg.StorageCapacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.ConnectAll(); err != nil {
		t.Fatal(err)
	}

	// One identical signed data item through both stacks: Publish builds
	// and signs it on the live side; the clone (ed25519 signing is
	// deterministic, so the bytes match) is injected into the simulation.
	liveItem, err := cluster.Node(0).Publish([]byte("differential payload"), "Test/Differential", "Lab")
	if err != nil {
		t.Fatal(err)
	}
	sys.InjectItem(0, liveItem.Clone())

	sys.Run(horizon)
	// The live clock already moved a little during connection handshakes;
	// advance to the same absolute virtual instant the sim stopped at.
	cluster.Run(cluster.Epoch.Add(horizon).Sub(cluster.Clock.Now()))

	simTip := sys.Node(0).Chain().Tip()
	liveTip := cluster.Node(0).Tip()
	if simTip.Index < 5 {
		t.Fatalf("sim mined only %d blocks in %v — scenario too short to be meaningful", simTip.Index, horizon)
	}
	if liveTip.Index != simTip.Index {
		t.Fatalf("heights diverge: sim %d, live %d", simTip.Index, liveTip.Index)
	}
	if liveTip.Hash != simTip.Hash {
		t.Fatalf("tip hashes diverge at height %d: sim %x, live %x", simTip.Index, simTip.Hash[:8], liveTip.Hash[:8])
	}
	if !cluster.Node(0).HasItemOnChain(liveItem.ID) {
		t.Fatal("published item never reached the chain")
	}

	simLedger := sys.Node(0).Engine().Ledger()
	liveS, liveQ := cluster.Node(0).LedgerStats()
	for i := 0; i < n; i++ {
		if liveS[i] != simLedger.S(i) {
			t.Errorf("S_%d diverges: sim %d, live %d", i, simLedger.S(i), liveS[i])
		}
		if liveQ[i] != simLedger.Q(i) {
			t.Errorf("Q_%d diverges: sim %d, live %d", i, simLedger.Q(i), liveQ[i])
		}
	}

	// Every live node (not just node 0) converged on the same chain.
	for i := 1; i < n; i++ {
		if tip := cluster.Node(i).Tip(); tip.Hash != liveTip.Hash {
			t.Errorf("live node %d tip diverges from node 0", i)
		}
	}
	// And every sim node too.
	for i := 1; i < n; i++ {
		if tip := sys.Node(i).Chain().Tip(); tip.Hash != simTip.Hash {
			t.Errorf("sim node %d tip diverges from node 0", i)
		}
	}
}
