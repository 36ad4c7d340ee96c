package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/chaos"
	"repro/internal/identity"
	"repro/internal/telemetry"
)

// outcome is everything one run of one workload produced.
type outcome struct {
	metrics   map[string]float64
	info      map[string]string // digests, sample counts, percentiles used
	attempted int
	failed    int
	// Operations that succeeded only because the harness client issued them
	// again: items published a second time because no chain had them, and
	// fetches asked again because no answer came.
	republished  int
	fetchRetries int
	correct      bool
	problems     []string

	// Inputs the probes take from the run.
	n         int
	t0        time.Duration // the cluster's expected block interval
	canonical []*block.Block
	accounts  []identity.Address
	used      []int // StorageUsed at the end
	windowCPU time.Duration
	committed int // items on the canonical chain
}

func newOutcome(n int, t0 time.Duration) *outcome {
	return &outcome{metrics: make(map[string]float64), info: make(map[string]string), correct: true, n: n, t0: t0}
}

// fail records a correctness-check failure; the run then reports
// correct=false and every operation as failed.
func (o *outcome) fail(format string, args ...any) {
	o.correct = false
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// settle closes the operation accounting: a run that failed a correctness
// check counts every operation as failed, so failed_share reads 1.
func (o *outcome) settle() {
	if !o.correct {
		o.failed = o.attempted
	}
	m := o.metrics
	m["failed_share"], m["retried_share"] = 0, 0
	if o.attempted > 0 {
		m["failed_share"] = float64(o.failed) / float64(o.attempted)
		m["retried_share"] = float64(o.republished+o.fetchRetries) / float64(o.attempted)
	}
	m["livenode.items_republished"] = float64(o.republished)
	m["livenode.fetch_retries"] = float64(o.fetchRetries)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// counterSum is the cluster-wide view of the per-node telemetry registries
// the harness handed to the nodes.
type counterSum struct {
	total      map[string]uint64
	peakEgress uint64               // largest per-node consensus+data+repair byte count
	histP50    map[string][]float64 // per-node medians of each histogram that has samples
}

const (
	wireConsensus = "livenode.wire.consensus_bytes"
	wireData      = "livenode.wire.data_bytes"
	wireRepair    = "livenode.wire.repair_bytes"
)

func sumRegistries(regs []*telemetry.Registry) counterSum {
	s := counterSum{total: make(map[string]uint64), histP50: make(map[string][]float64)}
	for _, reg := range regs {
		snap := reg.Snapshot()
		for name, v := range snap.Counters {
			s.total[name] += v
		}
		for name, h := range snap.Histograms {
			if h.Count > 0 {
				s.histP50[name] = append(s.histP50[name], h.P50)
			}
		}
		if e := snap.Counter(wireConsensus) + snap.Counter(wireData) + snap.Counter(wireRepair); e > s.peakEgress {
			s.peakEgress = e
		}
	}
	return s
}

func sumCounters(c *chaos.Cluster, n int) counterSum {
	regs := make([]*telemetry.Registry, n)
	for i := range regs {
		regs[i] = c.NodeTelemetry(i)
	}
	return sumRegistries(regs)
}

func (s counterSum) wireTotal() uint64 {
	return s.total[wireConsensus] + s.total[wireData] + s.total[wireRepair]
}

// record writes the metrics both harnesses derive alike from a resolved run:
// the chain, replica and propagation latencies, the per-item costs of the
// measured window (ref sampled the machine's speed during it), the block
// sizes and the counters. It returns the item count the
// per-item metrics are divided by.
func (o *outcome) record(res resolved, sum counterSum, cpu time.Duration, ref *speedRef, fetchMs []float64, rec *recorder) float64 {
	if res.committed == 0 {
		o.fail("no item reached the canonical chain")
		res.committed = 1
	}
	items := float64(res.committed)
	chain, fetch, prop := summarize(res.chainAll), summarize(fetchMs), summarize(res.blockProp)
	blockItems := sortedCopy(res.blockItems)
	m := o.metrics
	m["chain_p50_ms"], m["chain_tail_ms"] = chain.P50, chain.Tail
	m["replica_p50_ms"] = median(res.replica)
	m["fetch_p50_ms"] = fetch.P50
	m["block_prop_p50_ms"] = prop.P50
	m["wire_kb_per_item"] = float64(sum.wireTotal()) / 1000 / items
	cpu -= ref.spent
	m["cpu_ms_per_item"] = float64(cpu) / 1e6 / items
	if sig := ref.cost(); sig > 0 {
		m["cpu_sigs_per_item"] = float64(cpu) / float64(sig) / items
	}
	o.info["sig_cost_us"] = fmt.Sprintf("%.2f over %d samples (median %.2f)", float64(ref.cost())/1e3, len(ref.samples), median(ref.samples)/1e3)
	o.committed, o.windowCPU = res.committed, cpu
	m["livenode.chain_first_p50_ms"] = median(res.chainFirst)
	m["livenode.chain_all_p50_ms"], m["livenode.chain_all_tail_ms"] = chain.P50, chain.Tail
	m["livenode.block_prop_p50_ms"] = prop.P50
	m["livenode.replica_shortfall_share"] = float64(res.notReplica) / items
	m["livenode.publish_us"] = median(rec.durations("livenode.Publish")) / 1e3
	m["block.items_per_block_p50"] = percentile(blockItems, 50)
	m["block.items_per_block_max"] = percentile(blockItems, 100)
	sum.counterMetrics(m, items)
	o.info["chain_samples"] = fmt.Sprintf("n=%d tail=p%.0f", chain.N, chain.TailPct)
	o.info["fetch_samples"] = fmt.Sprintf("n=%d tail=p%.0f %.4f ms", fetch.N, fetch.TailPct, fetch.Tail)
	o.info["block_prop_samples"] = fmt.Sprintf("n=%d", prop.N)
	return items
}

// counterMetrics writes the counter-derived per-layer metrics.
func (s counterSum) counterMetrics(m map[string]float64, items float64) {
	kb := func(name string) float64 { return float64(s.total[name]) / 1000 / items }
	m["livenode.wire_meta_kb"] = kb("livenode.wire.meta_bytes")
	m["livenode.wire_block_kb"] = kb("livenode.wire.block_bytes")
	m["livenode.wire_announce_kb"] = kb("livenode.wire.announce_bytes")
	m["livenode.wire_data_kb"] = kb(wireData)
	m["livenode.wire_repair_kb"] = kb(wireRepair)
	m["livenode.wire_heartbeat_kb"] = kb("livenode.wire.heartbeat_bytes")
	m["livenode.peak_node_egress_kb"] = float64(s.peakEgress) / 1000 / items
	count := func(metric, counter string) { m[metric] = float64(s.total[counter]) }
	count("livenode.fork_adoptions", "livenode.fork.adoptions")
	count("livenode.sync_rounds", "livenode.sync.rounds")
	count("livenode.sync_full_replays", "livenode.sync.full_replays")
	count("livenode.sync_retries", "livenode.sync.retries")
	count("livenode.gossip_fetch_timeouts", "livenode.gossip.fetch_timeouts")
	count("livenode.metagossip_fetch_timeouts", "livenode.metagossip.fetch_timeouts")
	count("livenode.data_fetch_expired", "livenode.data.fetch_expired")
	if won := s.total["livenode.mining.blocks_won"]; won > 0 {
		m["livenode.mining_attempts_per_block"] = float64(s.total["livenode.mining.attempts"]) / float64(won)
	}
	count("p2p.frames_sent", "p2p.frames_sent")
	count("p2p.bytes_sent", "p2p.bytes_sent")
	count("p2p.send_errors", "p2p.send_errors")
	count("p2p.write_deadline_hits", "p2p.write_deadline_hits")
	count("p2p.broadcast_failed", "p2p.broadcast.failed")
	count("store.wal_appends", "store.wal.appends")
	count("store.wal_syncs", "store.wal.syncs")
	count("store.recovery_blocks", "store.recovery.blocks")
	m["store.wal_append_p50_us"] = median(s.histP50["store.wal.append_ns"]) / 1e3
	m["store.wal_fsync_p50_us"] = median(s.histP50["store.wal.fsync_ns"]) / 1e3
	count("repair.enqueued", "livenode.repair.enqueued")
	count("repair.completed", "livenode.repair.completed")
	count("repair.fallbacks", "livenode.repair.fallbacks")
	count("repair.throttled", "livenode.repair.throttled")
	m["repair.fetch_p50_ms"] = median(s.histP50["livenode.repair.fetch_ns"]) / 1e6
}
