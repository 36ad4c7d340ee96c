package engine_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/pos"
)

// TestDifferentialLiveVsReplay drives a 5-node live cluster (livenode over
// the in-memory transport, one-hop clique, no faults) for twenty virtual
// minutes with one published item, then checks what the engine decided
// against a scratch replay of the resulting chain: every block's PoS claim
// must validate against a ledger rebuilt from genesis, and that ledger's
// per-account S_i/Q_i must equal what each live engine accumulated block by
// block. Every node must end on the same tip with the item on it.
func TestDifferentialLiveVsReplay(t *testing.T) {
	const (
		n       = 5
		horizon = 20 * time.Minute
	)
	cluster, err := chaos.NewCluster(chaos.Options{N: n, Seed: 1, T0: pos.DefaultT0, StorageCapacity: 250})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if err := cluster.ConnectAll(); err != nil {
		t.Fatal(err)
	}
	item, err := cluster.Node(0).Publish([]byte("differential payload"), "Test/Differential", "Lab")
	if err != nil {
		t.Fatal(err)
	}
	cluster.Run(horizon)

	chain := cluster.Node(0).ChainSnapshot()
	tip := chain[len(chain)-1]
	if tip.Index < 5 {
		t.Fatalf("mined only %d blocks in %v — scenario too short to be meaningful", tip.Index, horizon)
	}
	if !cluster.Node(0).HasItemOnChain(item.ID) {
		t.Fatal("published item never reached the chain")
	}

	scratch := pos.NewLedger(cluster.Accounts())
	for k, b := range chain[1:] {
		if err := cluster.Params().ValidateClaim(chain[k], b, scratch); err != nil {
			t.Fatalf("block %d: claim fails on scratch replay: %v", b.Index, err)
		}
		if err := scratch.ApplyBlock(b); err != nil {
			t.Fatalf("block %d: scratch ledger refuses it: %v", b.Index, err)
		}
	}
	for i := 0; i < n; i++ {
		node := cluster.Node(i)
		if got := node.Tip(); got.Hash != tip.Hash {
			t.Errorf("node %d tip %x diverges from node 0's %x", i, got.Hash[:8], tip.Hash[:8])
			continue
		}
		liveS, liveQ := node.LedgerStats()
		for j := 0; j < n; j++ {
			if liveS[j] != scratch.S(j) || liveQ[j] != scratch.Q(j) {
				t.Errorf("node %d: account %d has S=%d Q=%d live, S=%d Q=%d on replay",
					i, j, liveS[j], liveQ[j], scratch.S(j), scratch.Q(j))
			}
		}
	}
}
