package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/raft"
	"repro/internal/sim"
	"repro/internal/ufl"
)

// --- A1: FDC weight sweep ---------------------------------------------------

// FDCWeightRow reports fairness/latency for one value of the scaling
// factor A of eq. (3). The paper fixed A = 1000 "after some tests"; this
// ablation shows the trade-off that choice navigates.
type FDCWeightRow struct {
	Weight      float64
	Gini        float64
	DeliverySec float64
	// StoredUnits is the total storage consumed across all nodes — low A
	// opens facilities freely and replicates heavily, which is what the
	// fairness weight holds in check.
	StoredUnits int
}

// RunFDCWeightAblation sweeps the FDC weight A.
func RunFDCWeightAblation(weights []float64, nodes int, duration time.Duration, seed int64) ([]FDCWeightRow, error) {
	if len(weights) == 0 {
		weights = []float64{1, 10, 100, 1000, 10000}
	}
	rows := make([]FDCWeightRow, 0, len(weights))
	for _, w := range weights {
		w := w
		cfg := core.DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 2
		// Rescale the instance's open costs by w/1000 relative to the
		// default planner weight via a solver wrapper.
		ratio := w / alloc.DefaultFDCWeight
		cfg.Solver = func(in *ufl.Instance) (*ufl.Solution, error) {
			scaled := &ufl.Instance{
				OpenCost: make([]float64, len(in.OpenCost)),
				ConnCost: in.ConnCost,
			}
			for i, f := range in.OpenCost {
				scaled.OpenCost[i] = f * ratio
			}
			return ufl.Greedy(scaled)
		}
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys.Run(duration)
		res := sys.Results()
		stored := 0
		for _, c := range res.StorageCounts {
			stored += c
		}
		rows = append(rows, FDCWeightRow{
			Weight:      w,
			Gini:        res.StorageGini,
			DeliverySec: res.Delivery.Mean,
			StoredUnits: stored,
		})
	}
	return rows, nil
}

// PrintFDCWeightAblation renders A1.
func PrintFDCWeightAblation(w io.Writer, rows []FDCWeightRow) {
	fmt.Fprintln(w, "Ablation A1 — FDC weight A (paper: 1000)")
	fmt.Fprintf(w, "%10s %8s %14s %14s\n", "A", "gini", "delivery (s)", "stored units")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8.3f %14.2f %14d\n", r.Weight, r.Gini, r.DeliverySec, r.StoredUnits)
	}
}

// --- A3: raft heartbeat overhead --------------------------------------------

// RaftHeartbeatRow reports message load for one heartbeat interval.
type RaftHeartbeatRow struct {
	Heartbeat     time.Duration
	AppendEntries uint64
	TotalBytes    uint64
}

// RunRaftHeartbeatAblation measures the heartbeat traffic the paper calls
// out ("the approach transmits a large number of heartbeat messages") for
// a range of intervals, over the same simulated radio network the
// blockchain uses.
func RunRaftHeartbeatAblation(intervals []time.Duration, nodes int, duration time.Duration, seed int64) ([]RaftHeartbeatRow, error) {
	if len(intervals) == 0 {
		intervals = []time.Duration{250 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 4 * time.Second}
	}
	rows := make([]RaftHeartbeatRow, 0, len(intervals))
	for _, hb := range intervals {
		cfg := core.DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 0 // isolate the raft traffic
		cfg.EnableRaft = true
		cfg.RaftHeartbeat = hb
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys.Run(duration)
		var appends uint64
		for i := 0; i < nodes; i++ {
			if r := sys.Node(i).Raft(); r != nil {
				appends += r.Stats().Sent[raft.MsgAppendEntries]
			}
		}
		rows = append(rows, RaftHeartbeatRow{
			Heartbeat:     hb,
			AppendEntries: appends,
			TotalBytes:    sys.Results().KindBytes["raft"],
		})
	}
	return rows, nil
}

// PrintRaftHeartbeatAblation renders A3.
func PrintRaftHeartbeatAblation(w io.Writer, rows []RaftHeartbeatRow) {
	fmt.Fprintln(w, "Ablation A3 — raft heartbeat interval vs message overhead")
	fmt.Fprintf(w, "%12s %16s %14s\n", "heartbeat", "AppendEntries", "bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%12v %16d %14d\n", r.Heartbeat, r.AppendEntries, r.TotalBytes)
	}
}

// --- A4: UFL solver comparison ------------------------------------------------

// UFLSolverRow compares one solver against the exact optimum on random
// geometric instances shaped like the paper's (hop-count connection costs,
// FDC-scaled opening costs).
type UFLSolverRow struct {
	Solver    string
	MeanRatio float64
	MaxRatio  float64
	MeanCost  float64
}

// RunUFLSolverAblation evaluates the solver suite on trials random
// instances with the given facility count (≤ ufl.MaxExactFacilities).
func RunUFLSolverAblation(facilities, trials int, seed int64) ([]UFLSolverRow, error) {
	if facilities > ufl.MaxExactFacilities {
		return nil, fmt.Errorf("experiments: %d facilities exceeds exact-solver cap %d", facilities, ufl.MaxExactFacilities)
	}
	rng := rand.New(rand.NewSource(seed))
	solvers := []struct {
		name string
		fn   func(*ufl.Instance) (*ufl.Solution, error)
	}{
		{"greedy", ufl.Greedy},
		{"localsearch", func(in *ufl.Instance) (*ufl.Solution, error) { return ufl.LocalSearch(in, nil) }},
		{"jms", ufl.JMS},
	}
	sums := make([]float64, len(solvers))
	maxs := make([]float64, len(solvers))
	costs := make([]float64, len(solvers))
	for trial := 0; trial < trials; trial++ {
		in := paperLikeInstance(rng, facilities)
		opt, err := ufl.Exact(in)
		if err != nil {
			return nil, err
		}
		for i, s := range solvers {
			sol, err := s.fn(in)
			if err != nil {
				return nil, err
			}
			ratio := sol.Cost / opt.Cost
			sums[i] += ratio
			costs[i] += sol.Cost
			if ratio > maxs[i] {
				maxs[i] = ratio
			}
		}
	}
	rows := make([]UFLSolverRow, len(solvers))
	for i, s := range solvers {
		rows[i] = UFLSolverRow{
			Solver:    s.name,
			MeanRatio: sums[i] / float64(trials),
			MaxRatio:  maxs[i],
			MeanCost:  costs[i] / float64(trials),
		}
	}
	return rows, nil
}

// paperLikeInstance builds a UFL instance with the paper's cost structure:
// nodes random in the field, hop-count RDC connection costs, FDC-weighted
// opening costs under random storage loads.
func paperLikeInstance(rng *rand.Rand, n int) *ufl.Instance {
	field := geo.DefaultField()
	pls, _ := geo.PlaceNodesConnected(field, n, 30, 70, rng, 50)
	topo := netsim.NewTopology(netsim.HomePositions(pls), 70, nil)
	states := make([]alloc.NodeState, n)
	for i := range states {
		states[i] = alloc.NodeState{
			Used:          rng.Intn(200),
			Capacity:      250,
			MobilityRange: 30,
		}
	}
	p := alloc.NewPlanner(70)
	return p.BuildInstance(topo, states)
}

// PrintUFLSolverAblation renders A4.
func PrintUFLSolverAblation(w io.Writer, rows []UFLSolverRow) {
	fmt.Fprintln(w, "Ablation A4 — UFL solver vs exact optimum")
	fmt.Fprintf(w, "%12s %12s %12s %14s\n", "solver", "mean ratio", "max ratio", "mean cost")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s %12.4f %12.4f %14.1f\n", r.Solver, r.MeanRatio, r.MaxRatio, r.MeanCost)
	}
}

// --- A2: recent-block cache depth ---------------------------------------------

// RecentCacheRow reports recovery behaviour for one initial cache depth.
type RecentCacheRow struct {
	Depth          int
	RecoveredIn    time.Duration
	GapRecoveries  int
	CtrlBytes      uint64
	FinalHeightGap int64
}

// RunRecentCacheAblation measures how quickly a briefly disconnected node
// catches up for different minimum recent-cache depths. It reuses the
// system's outage machinery: node 4 goes down for the middle third of the
// run and must recover the blocks it missed.
func RunRecentCacheAblation(depths []int, nodes int, duration time.Duration, seed int64) ([]RecentCacheRow, error) {
	if len(depths) == 0 {
		depths = []int{1, 2, 4, 8}
	}
	rows := make([]RecentCacheRow, 0, len(depths))
	for _, d := range depths {
		cfg := core.DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 1
		cfg.MobilityEpoch = 0
		cfg.InitialRecentDepth = d
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		down := duration / 3
		up := 2 * duration / 3
		clock := sys.Clock()
		clock.AfterFunc(down, func() { sys.Network().SetDown(netsim.NodeID(4), true) })
		clock.AfterFunc(up, func() { sys.Network().SetDown(netsim.NodeID(4), false) })
		// Poll after the node comes back: the recovery time is how long it
		// takes node 4 to reach the tallest chain in the network.
		recoveredAt := time.Duration(-1)
		clock.AfterFunc(up, func() {
			sim.Every(clock, time.Second, func() bool {
				best := uint64(0)
				for i := 0; i < nodes; i++ {
					if i == 4 {
						continue
					}
					if h := sys.Node(i).Chain().Height(); h > best {
						best = h
					}
				}
				if sys.Node(4).Chain().Height() < best {
					return true
				}
				recoveredAt = clock.Elapsed() - up
				return false
			})
		})
		sys.Run(duration)
		res := sys.Results()
		gap := int64(res.ChainHeight) - int64(sys.Node(4).Chain().Height())
		rows = append(rows, RecentCacheRow{
			Depth:          d,
			RecoveredIn:    recoveredAt,
			GapRecoveries:  res.GapRecoveries,
			CtrlBytes:      res.KindBytes["ctrl"],
			FinalHeightGap: gap,
		})
	}
	return rows, nil
}

// PrintRecentCacheAblation renders A2.
func PrintRecentCacheAblation(w io.Writer, rows []RecentCacheRow) {
	fmt.Fprintln(w, "Ablation A2 — recent-cache depth vs recovery")
	fmt.Fprintf(w, "%8s %14s %14s %12s %14s\n", "depth", "recovered in", "recoveries", "ctrl bytes", "height gap")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %14v %14d %12d %14d\n", r.Depth, r.RecoveredIn, r.GapRecoveries, r.CtrlBytes, r.FinalHeightGap)
	}
}

// --- A5: network-level consensus energy ---------------------------------------

// ConsensusEnergyRow reports the in-system energy of one consensus
// algorithm (the Fig. 6 comparison embedded in the full network
// simulation: every node mines, stores and transmits).
type ConsensusEnergyRow struct {
	Consensus       string
	Blocks          uint64
	MiningJ         float64
	RadioJ          float64
	EnergyPerBlockJ float64
}

// RunConsensusEnergyAblation runs identical deployments under PoS and PoW
// and compares the network-wide energy consumption.
func RunConsensusEnergyAblation(nodes int, duration time.Duration, seed int64) ([]ConsensusEnergyRow, error) {
	rows := make([]ConsensusEnergyRow, 0, 2)
	for _, algo := range []core.ConsensusAlgo{core.ConsensusPoS, core.ConsensusPoW} {
		cfg := core.DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 1
		cfg.Consensus = algo
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys.Run(duration)
		res := sys.Results()
		var mining, radio float64
		for i := range res.MiningEnergyJ {
			mining += res.MiningEnergyJ[i]
			radio += res.RadioEnergyJ[i]
		}
		rows = append(rows, ConsensusEnergyRow{
			Consensus:       algo.String(),
			Blocks:          res.ChainHeight,
			MiningJ:         mining,
			RadioJ:          radio,
			EnergyPerBlockJ: res.EnergyPerBlockJ,
		})
	}
	return rows, nil
}

// PrintConsensusEnergyAblation renders A5.
func PrintConsensusEnergyAblation(w io.Writer, rows []ConsensusEnergyRow) {
	fmt.Fprintln(w, "Ablation A5 — network-wide mining energy, PoS vs PoW (in-system Fig. 6)")
	fmt.Fprintf(w, "%10s %8s %14s %12s %14s\n", "consensus", "blocks", "mining (J)", "radio (J)", "J/block")
	for _, r := range rows {
		fmt.Fprintf(w, "%10s %8d %14.1f %12.1f %14.1f\n", r.Consensus, r.Blocks, r.MiningJ, r.RadioJ, r.EnergyPerBlockJ)
	}
}

// --- A6: data migration ---------------------------------------------------------

// MigrationRow reports placement drift with and without the Section VII
// migration mechanism.
type MigrationRow struct {
	MaxPerBlock int
	Drift       float64 // mean cost(current)/cost(optimal) over live items
	Migrations  int
	DeliverySec float64
	CtrlMB      float64
}

// RunMigrationAblation runs identical deployments with migration disabled
// and enabled, and compares the end-of-run placement drift.
func RunMigrationAblation(nodes int, duration time.Duration, seed int64) ([]MigrationRow, error) {
	rows := make([]MigrationRow, 0, 2)
	for _, maxPer := range []int{0, 2} {
		cfg := core.DefaultConfig(nodes)
		cfg.Seed = seed
		cfg.DataRatePerMin = 3
		cfg.MigrateMaxPerBlock = maxPer
		cfg.MigrateCostRatio = 1.2
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		sys.Run(duration)
		res := sys.Results()
		rows = append(rows, MigrationRow{
			MaxPerBlock: maxPer,
			Drift:       sys.PlacementDrift(0),
			Migrations:  res.Migrations,
			DeliverySec: res.Delivery.Mean,
			CtrlMB:      float64(res.KindBytes["ctrl"]+res.KindBytes["data"]) / (1 << 20),
		})
	}
	return rows, nil
}

// PrintMigrationAblation renders A6.
func PrintMigrationAblation(w io.Writer, rows []MigrationRow) {
	fmt.Fprintln(w, "Ablation A6 — data migration (Section VII future work)")
	fmt.Fprintf(w, "%14s %8s %12s %14s %12s\n", "max per block", "drift", "migrations", "delivery (s)", "data+ctrl MB")
	for _, r := range rows {
		fmt.Fprintf(w, "%14d %8.3f %12d %14.2f %12.1f\n", r.MaxPerBlock, r.Drift, r.Migrations, r.DeliverySec, r.CtrlMB)
	}
}
