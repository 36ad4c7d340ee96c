// Blocksync: the Fig. 3 scenarios — a node that disconnects and recovers
// its missing blocks from nearby recent caches, and a brand-new node that
// joins late and syncs the whole chain from its neighbors.
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
	"repro/internal/netsim"
)

func main() {
	cfg := edgechain.DefaultConfig(16)
	cfg.Seed = 23
	cfg.DataRatePerMin = 1
	cfg.MobilityEpoch = 0 // keep the topology static for a clear story
	// Node 15 is "Node K": it enters the network at minute 20.
	cfg.LateJoiners = map[int]time.Duration{15: 20 * time.Minute}

	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Node 4 is "Node A": it drops off the network at minute 8 and comes
	// back at minute 14, having missed several blocks.
	const wanderer = 4
	sys.Clock().AfterFunc(8*time.Minute, func() {
		fmt.Printf("[%6s] node %d disconnects (height %d)\n",
			sys.Clock().Elapsed().Truncate(time.Second), wanderer,
			sys.Node(wanderer).Chain().Height())
		sys.Network().SetDown(netsim.NodeID(wanderer), true)
	})
	sys.Clock().AfterFunc(14*time.Minute, func() {
		sys.Network().SetDown(netsim.NodeID(wanderer), false)
		fmt.Printf("[%6s] node %d reconnects (height %d, network at %d)\n",
			sys.Clock().Elapsed().Truncate(time.Second), wanderer,
			sys.Node(wanderer).Chain().Height(), sys.Node(0).Chain().Height())
	})

	// Watch both nodes catch up.
	for m := 15; m <= 30; m += 5 {
		sys.Clock().AfterFunc(time.Duration(m)*time.Minute, func() {
			fmt.Printf("[%6s] heights: wanderer=%d joiner=%d network=%d\n",
				sys.Clock().Elapsed().Truncate(time.Second),
				sys.Node(wanderer).Chain().Height(),
				sys.Node(15).Chain().Height(),
				sys.Node(0).Chain().Height())
		})
	}

	sys.Run(30 * time.Minute)

	res := sys.Results()
	ref := sys.Node(0).Chain().Height()
	wh := sys.Node(wanderer).Chain().Height()
	jh := sys.Node(15).Chain().Height()
	fmt.Printf("\nfinal: network height %d, wanderer %d, late joiner %d\n", ref, wh, jh)
	fmt.Printf("gap recoveries: %d, full-chain syncs: %d\n",
		res.GapRecoveries, res.ForkReplacements)

	if diff(ref, wh) > 2 {
		log.Fatalf("wanderer failed to recover (gap %d)", diff(ref, wh))
	}
	if jh == 0 {
		log.Fatal("late joiner never synced")
	}
	fmt.Println("both recovery paths verified")
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
