// Command figures regenerates the paper's evaluation figures and the
// DESIGN.md ablations at full paper scale (500 simulated minutes per
// cell), on live nodes over the simulated radio field. Expect a few
// minutes of wall time for the complete set.
//
// Usage:
//
//	figures -fig 4            # Fig. 4 sweep
//	figures -fig 5            # Fig. 5 placement comparison
//	figures -fig 6            # Fig. 6 PoW vs PoS energy
//	figures -fig all          # everything including ablation A1
//	figures -ablation a1      # the FDC weight ablation
//	figures -duration 100m    # shrink the sweep for a quick look
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	var (
		fig      = flag.String("fig", "", "figure to regenerate: 4 | 5 | 6 | all")
		ablation = flag.String("ablation", "", "ablation to run: a1")
		duration = flag.Duration("duration", 500*time.Minute, "simulated duration per cell")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *fig == "" && *ablation == "" {
		flag.Usage()
		os.Exit(2)
	}

	runFig := func(name string) {
		start := time.Now()
		switch name {
		case "4":
			rows, err := experiments.RunFig4(experiments.Fig4Config{Duration: *duration, Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig4(os.Stdout, rows)
		case "5":
			rows, err := experiments.RunFig5(experiments.Fig5Config{Duration: *duration, Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig5(os.Stdout, rows)
		case "6":
			res, err := experiments.RunFig6(experiments.Fig6Config{Seed: *seed})
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFig6(os.Stdout, res)
		default:
			log.Fatalf("unknown figure %q", name)
		}
		fmt.Printf("(fig %s regenerated in %v)\n\n", name, time.Since(start).Round(time.Second))
	}

	runAblation := func(name string) {
		start := time.Now()
		switch name {
		case "a1":
			rows, err := experiments.RunFDCWeightAblation(nil, 30, *duration/5, *seed)
			if err != nil {
				log.Fatal(err)
			}
			experiments.PrintFDCWeightAblation(os.Stdout, rows)
		default:
			log.Fatalf("unknown ablation %q", name)
		}
		fmt.Printf("(ablation %s done in %v)\n\n", name, time.Since(start).Round(time.Second))
	}

	switch {
	case *fig == "all":
		for _, f := range []string{"4", "5", "6"} {
			runFig(f)
		}
		runAblation("a1")
	case *fig != "":
		runFig(*fig)
	}
	if *ablation != "" {
		runAblation(*ablation)
	}
}
