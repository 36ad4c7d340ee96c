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
	"math/rand"
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
		raft      = flag.Bool("raft", false, "run the Raft general-consensus layer alongside the chain")
		blockTime = flag.Duration("t0", time.Minute, "expected time between blocks")
		consensus = flag.String("consensus", "pos", "mining consensus: pos | pow")
		migrate   = flag.Int("migrate", 0, "max data migrations per block (0 = off)")
		verbose   = flag.Bool("v", false, "print per-node detail")

		// Open-loop streaming workload knobs: setting any of them replaces
		// the built-in constant-rate generator with a pre-drained stream
		// (diurnal/burst arrival modulation, Zipf type skew, multiplexed
		// logical users).
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
	cfg.EnableRaft = *raft
	cfg.PoS.T0 = *blockTime
	switch *placement {
	case "optimal":
		cfg.Placement = edgechain.PlaceOptimal
	case "random":
		cfg.Placement = edgechain.PlaceRandom
	default:
		log.Fatalf("unknown placement %q (want optimal or random)", *placement)
	}
	switch *consensus {
	case "pos":
		cfg.Consensus = edgechain.ConsensusPoS
	case "pow":
		cfg.Consensus = edgechain.ConsensusPoW
	default:
		log.Fatalf("unknown consensus %q (want pos or pow)", *consensus)
	}
	cfg.MigrateMaxPerBlock = *migrate

	streaming := *diurnal > 0 || *burstEvery > 0 || *typeZipf > 1 || *users > 0
	if streaming {
		sc := edgechain.StreamWorkloadConfig{
			Duration:   *duration,
			RatePerMin: *rate,
			NumNodes:   *nodes,
			Seed:       *seed,
		}
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
		// With a trace, consumers come from the trace events, so bake the
		// sim's own pool convention (RequesterFraction of nodes) into the
		// stream instead of leaving requests off.
		sc.Requesters = edgechain.PickRequesterPool(*nodes, cfg.RequesterFraction,
			rand.New(rand.NewSource(*seed)))
		sc.RequestsPerItem = cfg.RequestsPerItem
		stream, err := edgechain.NewWorkloadStream(sc)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Trace = stream.Drain()
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
		fmt.Printf("  workload:         open-loop stream (%d events drained)\n", cfg.Trace.Len())
	}
	fmt.Printf("  chain height:     %d blocks (t0 = %v)\n", res.ChainHeight, *blockTime)
	fmt.Printf("  data generated:   %d items\n", res.DataGenerated)
	fmt.Printf("  deliveries:       %d (mean %.2f s, p50 %.2f s, p95 %.2f s, failed %d)\n",
		res.Delivery.Count, res.Delivery.Mean, res.Delivery.P50, res.Delivery.P95, res.FailedRequests)
	fmt.Printf("  storage gini:     %.4f\n", res.StorageGini)
	fmt.Printf("  avg tx per node:  %.1f MB (total %.1f MB)\n",
		res.AvgTxBytesPerNode/(1<<20), float64(res.TotalTxBytes)/(1<<20))
	fmt.Printf("  gap recoveries:   %d, full-chain syncs: %d, failed fetches: %d, migrations: %d\n",
		res.GapRecoveries, res.ForkReplacements, res.FailedFetches, res.Migrations)
	fmt.Printf("  energy:           %.1f J total (%s mining + radio), %.2f J/block\n",
		res.TotalEnergyJ, res.Consensus, res.EnergyPerBlockJ)
	fmt.Println("  traffic by kind:")
	for _, k := range []string{"data", "block", "meta", "ctrl", "raft"} {
		if b, ok := res.KindBytes[k]; ok {
			fmt.Printf("    %-6s %10.2f MB\n", k, float64(b)/(1<<20))
		}
	}
	if *verbose {
		fmt.Println("  per-node storage / tx:")
		for i, c := range res.StorageCounts {
			fmt.Printf("    node %2d: %4d items stored, %8.1f MB sent\n",
				i, c, float64(res.PerNodeTxBytes[i])/(1<<20))
		}
	}
	os.Exit(0)
}
