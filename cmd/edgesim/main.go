// Command edgesim runs one edge-blockchain simulation with the paper's
// parameters (overridable by flags) and prints the measured results.
//
// Usage:
//
//	edgesim -nodes 30 -rate 2 -duration 500m -placement optimal -seed 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	edgechain "repro"
)

func main() {
	log.SetFlags(0)
	var (
		nodes     = flag.Int("nodes", 30, "number of edge nodes (paper: 10-50)")
		rate      = flag.Float64("rate", 1, "data items generated per minute network-wide (paper: 1-3)")
		duration  = flag.Duration("duration", 500*time.Minute, "simulated run time (paper: 500 min)")
		placement = flag.String("placement", "optimal", "data placement strategy: optimal | random")
		seed      = flag.Int64("seed", 1, "random seed; same seed, same run")
		blockTime = flag.Duration("t0", time.Minute, "expected time between blocks")
		verbose   = flag.Bool("v", false, "print per-node detail")

		// Open-loop streaming workload knobs: they shape the workload
		// stream (diurnal/burst arrival modulation, Zipf type skew,
		// multiplexed logical users).
		diurnal      = flag.Duration("diurnal", 0, "diurnal rate period (0 = constant rate)")
		diurnalAmp   = flag.Float64("diurnal-amp", 0.5, "diurnal amplitude in [0,1]")
		burstEvery   = flag.Duration("burst-every", 0, "flash-crowd window period (0 = none)")
		burstDur     = flag.Duration("burst-dur", time.Minute, "flash-crowd window length")
		burstOffset  = flag.Duration("burst-offset", 0, "first flash-crowd window start")
		burstFactor  = flag.Float64("burst-factor", 10, "rate multiplier inside a flash-crowd window")
		typeZipf     = flag.Float64("type-zipf", 0, "Zipf exponent for data-type popularity (>1 to enable)")
		users        = flag.Int64("users", 0, "logical users multiplexed over the nodes (0 = per-node model)")
		userZipf     = flag.Float64("user-zipf", 0, "Zipf exponent for user activity (>1 to enable)")
		sessionEpoch = flag.Duration("session-epoch", 0, "user session re-keying period (mobility; 0 = pinned)")
	)
	flag.Parse()

	cfg := edgechain.DefaultConfig(*nodes)
	cfg.DataRatePerMin = *rate
	cfg.Seed = *seed
	cfg.T0 = *blockTime
	switch *placement {
	case "optimal":
		cfg.Placement = edgechain.PlaceOptimal
	case "random":
		cfg.Placement = edgechain.PlaceRandom
	default:
		log.Fatalf("unknown placement %q (want optimal or random)", *placement)
	}

	streaming := *diurnal > 0 || *burstEvery > 0 || *typeZipf > 1 || *users > 0
	if streaming {
		cfg.Stream = func(sc *edgechain.StreamWorkloadConfig) {
			if *diurnal > 0 {
				sc.DiurnalPeriod = *diurnal
				sc.DiurnalAmplitude = *diurnalAmp
			}
			if *burstEvery > 0 {
				sc.BurstEvery = *burstEvery
				sc.BurstDuration = *burstDur
				sc.BurstOffset = *burstOffset
				sc.BurstFactor = *burstFactor
			}
			if *typeZipf > 1 {
				sc.TypeZipfS = *typeZipf
			}
			if *users > 0 {
				sc.Users = *users
				if *userZipf > 1 {
					sc.UserZipfS = *userZipf
				}
				sc.SessionEpoch = *sessionEpoch
			}
		}
	}

	start := time.Now()
	sys, err := edgechain.NewSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(*duration)
	res := sys.Results()

	fmt.Printf("edgesim: %d nodes, %.0f items/min, %v simulated in %v wall time (seed %d)\n",
		res.NumNodes, res.DataRatePerMin, *duration, time.Since(start).Round(time.Millisecond), *seed)
	fmt.Printf("  placement:        %v\n", res.Placement)
	if streaming {
		fmt.Println("  workload:         open-loop stream (diurnal/burst/Zipf/users)")
	}
	fmt.Printf("  chain height:     %d blocks (t0 = %v)\n", res.ChainHeight, *blockTime)
	fmt.Printf("  data generated:   %d items, %d on the chain\n", res.DataGenerated, res.OnChain)
	fmt.Printf("  deliveries:       %d of %d reads (mean %.2f s)\n", res.Deliveries, res.Requests, res.DeliverySec)
	fmt.Printf("  storage gini:     %.4f\n", res.StorageGini)
	fmt.Printf("  avg tx per node:  %.1f MB (total %.1f MB)\n",
		res.AvgTxBytesPerNode/(1<<20), float64(res.TotalTxBytes)/(1<<20))
	if *verbose {
		tx := sys.Radio().Bytes()
		fmt.Println("  per-node storage / tx:")
		for i, c := range res.StorageCounts {
			fmt.Printf("    node %2d: %4d items stored, %8.1f MB sent\n", i, c, float64(tx[i])/(1<<20))
		}
	}
	os.Exit(0)
}
