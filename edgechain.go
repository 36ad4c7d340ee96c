// Package edgechain is a Go implementation of the edge blockchain from
// "Resource Allocation and Consensus on Edge Blockchain in Pervasive Edge
// Computing Environments" (Huang et al., ICDCS 2019).
//
// The library provides:
//
//   - a blockchain whose blocks carry small metadata items while the
//     actual data items live on a few optimally chosen nodes;
//   - the fair-and-efficient storage allocation of Section IV, built on
//     the Fairness Degree Cost (eq. 1), the Range-Distance Cost (eq. 2)
//     and Uncapacitated Facility Location solvers;
//   - the contribution-weighted Proof-of-Stake mechanism of Section V
//     (hit/target lottery with the eq. 14 amendment), plus a Proof-of-Work
//     baseline and a calibrated device energy model;
//   - one node implementation (LiveNode) that runs over real TCP sockets
//     and the wall clock, or — for every simulation, the paper's figures
//     included — over an in-memory multi-hop radio field with mobility,
//     ordered by one virtual clock, and harnesses that regenerate every
//     figure of the paper's evaluation.
//
// # Quick start
//
//	cfg := edgechain.DefaultConfig(20) // 20 nodes, paper parameters
//	sys, err := edgechain.NewSimulation(cfg)
//	if err != nil { ... }
//	sys.Run(30 * time.Minute)
//	res := sys.Results()
//	fmt.Printf("height=%d gini=%.3f delivery=%.2fs\n",
//	    res.ChainHeight, res.StorageGini, res.DeliverySec)
//
// See examples/ for runnable scenarios and cmd/figures for the
// paper-figure harness.
package edgechain

import (
	cryptorand "crypto/rand"
	mathrand "math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/meta"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// Config parametrizes a simulation; DefaultConfig returns the paper's
// Section VI setup.
type Config = experiments.Config

// System is one running deployment: live nodes on a simulated radio field
// under a virtual clock.
type System = experiments.System

// Results summarizes a finished run.
type Results = experiments.Results

// PlacementStrategy selects how storing nodes are chosen.
type PlacementStrategy = experiments.PlacementStrategy

// Placement strategies for Config.Placement.
const (
	// PlaceOptimal is the paper's fair-and-efficient UFL placement.
	PlaceOptimal = experiments.PlaceOptimal
	// PlaceRandom is the random baseline of the Fig. 5 comparison.
	PlaceRandom = experiments.PlaceRandom
)

// MetadataItem is one metadata record stored in blocks (Section III-B).
type MetadataItem = meta.Item

// MetadataQuery matches metadata items by type, location, freshness and
// producer.
type MetadataQuery = meta.Query

// DataID identifies a data item by its content hash.
type DataID = meta.DataID

// DefaultConfig returns the paper's simulation parameters for n nodes:
// 300 m x 300 m field, 70 m radio range, 30 m mobility, 250-item storage,
// 1 MB data items, 60 s expected block time, 10% requesters.
func DefaultConfig(n int) Config { return experiments.DefaultConfig(n) }

// NewSimulation builds a deployment. The same Config.Seed yields an
// identical run.
func NewSimulation(cfg Config) (*System, error) { return experiments.NewSystem(cfg) }

// RunSimulation is the one-call convenience: build, run for the duration,
// and return the results.
func RunSimulation(cfg Config, d time.Duration) (*Results, error) {
	sys, err := NewSimulation(cfg)
	if err != nil {
		return nil, err
	}
	sys.Run(d)
	return sys.Results(), nil
}

// Gini computes the Gini disparity coefficient used for the storage
// fairness metric (Fig. 4b).
func Gini(values []float64) float64 { return metrics.Gini(values) }

// Experiment harnesses: each Run*/Print* pair regenerates one figure of
// the paper's evaluation (see EXPERIMENTS.md).
type (
	// Fig4Config parametrizes the Fig. 4 sweep (overhead / Gini /
	// delivery across node counts and data rates).
	Fig4Config = experiments.Fig4Config
	// Fig4Row is one (nodes, rate) cell of Fig. 4.
	Fig4Row = experiments.Fig4Row
	// Fig5Config parametrizes the Fig. 5 placement comparison.
	Fig5Config = experiments.Fig5Config
	// Fig5Row compares optimal and random placement at one node count.
	Fig5Row = experiments.Fig5Row
	// Fig6Config parametrizes the PoW-vs-PoS energy experiment.
	Fig6Config = experiments.Fig6Config
	// Fig6Result holds both algorithms' battery traces.
	Fig6Result = experiments.Fig6Result
)

// RunFig4 regenerates the Fig. 4 sweep.
func RunFig4(cfg Fig4Config) ([]Fig4Row, error) { return experiments.RunFig4(cfg) }

// RunFig5 regenerates the Fig. 5 placement comparison.
func RunFig5(cfg Fig5Config) ([]Fig5Row, error) { return experiments.RunFig5(cfg) }

// RunFig6 regenerates the Fig. 6 energy comparison.
func RunFig6(cfg Fig6Config) (*Fig6Result, error) { return experiments.RunFig6(cfg) }

// Open-loop streaming workloads: time-varying arrival rates (diurnal
// sinusoid, flash-crowd bursts), Zipf popularity skew, and millions of
// logical users multiplexed over the node set. Events are generated lazily
// in O(1) memory; Config.Stream shapes the one a simulation runs.
type (
	// StreamWorkloadConfig parametrizes an open-loop event stream.
	StreamWorkloadConfig = workload.StreamConfig
	// WorkloadStream is a lazy, seeded open-loop event generator.
	WorkloadStream = workload.Stream
	// WorkloadEvent is one data production event.
	WorkloadEvent = workload.Event
)

// NewWorkloadStream builds an open-loop generator; same config, same
// event sequence.
func NewWorkloadStream(cfg StreamWorkloadConfig) (*WorkloadStream, error) {
	return workload.NewStream(cfg)
}

// PickRequesterPool selects the paper's consumer pool (a fraction of the
// nodes, Section VI-A) for a workload configuration.
func PickRequesterPool(numNodes int, fraction float64, rng *mathrand.Rand) []int {
	return workload.PickRequesterPool(numNodes, fraction, rng)
}

// Live deployment: the same blockchain over real TCP sockets and the wall
// clock (see cmd/edgenode for the CLI form).
type (
	// LiveConfig configures one live node.
	LiveConfig = livenode.Config
	// LiveNode is a live blockchain node.
	LiveNode = livenode.Node
)

// NewLiveNode starts a live node listening on cfg.ListenAddr.
func NewLiveNode(cfg LiveConfig) (*LiveNode, error) { return livenode.New(cfg) }

// Identity is a node key pair with its derived account address.
type Identity = identity.Identity

// Address is an account address (SHA-256 of the public key).
type Address = identity.Address

// NewIdentity generates a key pair from crypto/rand.
func NewIdentity() (*Identity, error) { return identity.Generate(cryptorand.Reader) }

// NewSeededIdentity generates a deterministic key pair for simulations and
// demos. Never use it with real value at stake.
func NewSeededIdentity(rng *mathrand.Rand) *Identity { return identity.GenerateSeeded(rng) }
