// Quickstart: run the paper's default edge-blockchain deployment for 20
// simulated nodes and half an hour of virtual time, then print the
// headline metrics (chain height, storage fairness, delivery latency,
// per-node transmission overhead).
package main

import (
	"fmt"
	"log"
	"time"

	edgechain "repro"
)

func main() {
	cfg := edgechain.DefaultConfig(20) // paper's Section VI parameters
	cfg.DataRatePerMin = 2
	cfg.Seed = 42

	res, err := edgechain.RunSimulation(cfg, 30*time.Minute)
	if err != nil {
		log.Fatalf("simulation failed: %v", err)
	}

	fmt.Println("edge blockchain quickstart — 20 nodes, 30 simulated minutes")
	fmt.Printf("  blocks mined:          %d (expected ~%d at one per minute)\n",
		res.ChainHeight, 30)
	fmt.Printf("  data items generated:  %d\n", res.DataGenerated)
	fmt.Printf("  deliveries:            %d of %d reads (mean %.2f s)\n",
		res.Deliveries, res.Requests, res.DeliverySec)
	fmt.Printf("  storage Gini:          %.3f (paper bound: < 0.15)\n", res.StorageGini)
	fmt.Printf("  avg tx per node:       %.1f MB\n", res.AvgTxBytesPerNode/(1<<20))
}
