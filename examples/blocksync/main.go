// Blocksync: the Fig. 3 scenarios — a node that disconnects and catches up
// on the blocks it missed once it is back, and a brand-new node that joins
// late and syncs the whole chain from its neighbors.
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
)

func main() {
	cfg := edgechain.DefaultConfig(16)
	cfg.Seed = 23
	cfg.DataRatePerMin = 1
	cfg.MobilityEpoch = 0 // keep the topology static for a clear story

	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c := sys.Cluster()
	height := func(i int) uint64 {
		if n := sys.Node(i); n != nil {
			return n.Height()
		}
		return 0
	}
	now := func() time.Duration { return sys.Clock().Elapsed().Truncate(time.Second) }

	// Node 15 is "Node K": it is off at the start and enters the network,
	// with an empty chain, at minute 20.
	const joiner = 15
	if err := c.Crash(joiner); err != nil {
		log.Fatal(err)
	}
	sys.Clock().AfterFunc(20*time.Minute, func() {
		if err := c.Restart(joiner); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%6s] node %d joins (network at %d)\n", now(), joiner, height(0))
	})

	// Node 4 is "Node A": it drops off the network at minute 8 and comes
	// back at minute 14, having missed several blocks.
	const wanderer = 4
	others := make([]int, 0, cfg.NumNodes)
	for i := 0; i < cfg.NumNodes; i++ {
		if i != wanderer {
			others = append(others, i)
		}
	}
	sys.Clock().AfterFunc(8*time.Minute, func() {
		fmt.Printf("[%6s] node %d disconnects (height %d)\n", now(), wanderer, height(wanderer))
		c.Partition([]int{wanderer}, others)
	})
	sys.Clock().AfterFunc(14*time.Minute, func() {
		c.Heal()
		fmt.Printf("[%6s] node %d reconnects (height %d, network at %d)\n",
			now(), wanderer, height(wanderer), height(0))
	})

	// Watch both nodes catch up.
	for m := 15; m <= 30; m += 5 {
		sys.Clock().AfterFunc(time.Duration(m)*time.Minute, func() {
			fmt.Printf("[%6s] heights: wanderer=%d joiner=%d network=%d\n",
				now(), height(wanderer), height(joiner), height(0))
		})
	}

	sys.Run(30 * time.Minute)

	ref, wh, jh := height(0), height(wanderer), height(joiner)
	fmt.Printf("\nfinal: network height %d, wanderer %d, late joiner %d\n", ref, wh, jh)
	for _, i := range []int{wanderer, joiner} {
		tel := c.NodeTelemetry(i).Snapshot()
		fmt.Printf("node %2d: %d sync rounds, %d blocks fetched by sync\n",
			i, tel.Counter("livenode.sync.rounds"), tel.Counter("livenode.sync.blocks_fetched"))
	}

	if diff(ref, wh) > 2 {
		log.Fatalf("wanderer failed to recover (gap %d)", diff(ref, wh))
	}
	if diff(ref, jh) > 2 {
		log.Fatalf("late joiner failed to sync (gap %d)", diff(ref, jh))
	}
	fmt.Println("both recovery paths verified")
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
