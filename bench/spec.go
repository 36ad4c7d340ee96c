package main

// The ledger's vocabulary: every workload and metric name, unit and bound
// lives here, and BENCHMARK.json at the repository root repeats the part the
// driver gates on (bench_test.go keeps the two in step).

type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"tcp-steady", "8 nodes over real TCP loopback at 100 items/s: the only load on p2p framing, reader goroutines and the livenode and dispatch locks"},
	{"sim-flash", "64 virtual-time nodes under a x20 flash crowd: big pools into engine.Mine, big blocks through block verify, the metadata relay under bursts"},
	{"sim-scale", "256 virtual-time nodes, few items: per-item cost is fan-out (memnet peers, alloc/ufl at n=256), not pool size"},
	{"sim-churn", "64 durable nodes under crashes and restarts: WAL replay, locator sync and the repair plane, the read side of the same layers"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how much worse the median may get before it is a regression: a
	// share of the base's median, or an absolute amount when Abs is set. For a
	// gated metric it is also the bound in BENCHMARK.json, where the driver
	// sets it against medians of ten runs. BoundOn replaces it, for -compare
	// alone, on the workloads where twice the spread measured between single
	// runs of one commit is more (README, "Bounds"): -compare judges ledgers of
	// two or three sets, and must not call a rerun a regression.
	Bound   float64
	Abs     bool
	BoundOn map[string]float64
	// On names the workloads on which this is an end-to-end metric; nil means
	// all four. Elsewhere the quantity either does not exist (restore time
	// without crashes) or follows the wall-clock PoS lottery from run to run
	// (every chain latency on tcp-steady) and is reported with the layers,
	// under livenode.*, where -compare does not judge it.
	On []string
	// Gated marks the end-to-end metrics that read steadily across seeds on
	// every workload; only those are in BENCHMARK.json's end_to_end list,
	// whose bounds the driver caps at 0.25. The others follow the PoS lottery
	// from seed to seed and are reported with the per-layer metrics.
	Gated bool
	// Virtual marks a latency read on the simulated clock in sim-*
	// workloads: identical code gives an identical value.
	Virtual bool
}

func (m metricSpec) on(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

func (m metricSpec) bound(workload string) float64 {
	if b, ok := m.BoundOn[workload]; ok {
		return b
	}
	return m.Bound
}

var (
	simAll       = []string{"sim-flash", "sim-scale", "sim-churn"}
	simLongTails = []string{"sim-flash", "sim-churn"} // enough items for a tail percentile
	simNoFaults  = []string{"sim-flash", "sim-scale"}
	simChurn     = []string{"sim-churn"}
)

// endToEnd lists what a user of the system would see.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true,
		BoundOn: map[string]float64{"sim-flash": 0.45, "sim-scale": 0.45, "sim-churn": 0.60}},
	{Name: "wire_kb_per_item", Unit: "KB", Better: "lower", Bound: 0.25, Gated: true, Virtual: true},
	{Name: "cpu_sigs_per_item", Unit: "count", Better: "lower", Bound: 0.25, Gated: true,
		BoundOn: map[string]float64{"tcp-steady": 0.35}},
	{Name: "cpu_ms_per_item", Unit: "ms", Better: "lower", Bound: 0.15,
		BoundOn: map[string]float64{"tcp-steady": 0.40, "sim-churn": 0.45}},
	{Name: "fetch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true,
		BoundOn: map[string]float64{"tcp-steady": 0.50}},
	{Name: "chain_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simAll},
	{Name: "chain_tail_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simLongTails},
	{Name: "replica_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simAll},
	{Name: "block_prop_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simAll},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10, On: simAll,
		BoundOn: map[string]float64{"sim-churn": 0.45}},
	{Name: "gini_storage", Unit: "ratio", Better: "lower", Bound: 0.03, Abs: true, Virtual: true, On: simNoFaults},
	{Name: "restore_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simChurn},
	{Name: "catchup_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10, Virtual: true, On: simChurn},
	{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.005, Abs: true, Virtual: true},
	{Name: "retried_share", Unit: "ratio", Better: "lower", Bound: 0.005, Abs: true, Virtual: true},
}

// endToEndOn returns the end-to-end metrics of one workload.
func endToEndOn(workload string) []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.on(workload) {
			out = append(out, m)
		}
	}
	return out
}

func lower(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricSpec {
	return metricSpec{Name: name, Unit: unit, Better: "higher"}
}

// cpuLayers are the names a CPU sample can fold to: this repository's
// packages, plus the harness itself, the Go runtime (no repository frame on
// the stack) and whatever other package of the repository shows up.
var cpuLayers = []string{
	"livenode", "p2p", "memnet", "chaos", "identity", "meta", "block", "pos", "alloc", "ufl",
	"engine", "chain", "store", "repair", "telemetry", "workload", "bench", "runtime", "other",
}

// layerMetrics lists the per-layer metrics; a workload that does not run a
// layer reports 0 for it.
var layerMetrics = func() []metricSpec {
	l := []metricSpec{
		lower("workload.gen_late_p99_ms", "ms"), lower("workload.next_ns", "ns"),

		lower("livenode.publish_us", "us"), lower("livenode.solo_cpu_ms_per_item", "ms"),
		lower("livenode.chain_first_p50_ms", "ms"), lower("livenode.chain_all_p50_ms", "ms"),
		lower("livenode.chain_all_tail_ms", "ms"), lower("livenode.block_prop_p50_ms", "ms"),
		lower("livenode.replica_shortfall_share", "ratio"),
		lower("livenode.wire_meta_kb", "KB"), lower("livenode.wire_block_kb", "KB"),
		lower("livenode.wire_announce_kb", "KB"), lower("livenode.wire_data_kb", "KB"),
		lower("livenode.wire_repair_kb", "KB"), lower("livenode.wire_heartbeat_kb", "KB"),
		lower("livenode.peak_node_egress_kb", "KB"),
		lower("livenode.fork_adoptions", "count"), lower("livenode.sync_rounds", "count"),
		lower("livenode.sync_full_replays", "count"), lower("livenode.sync_retries", "count"),
		lower("livenode.gossip_fetch_timeouts", "count"), lower("livenode.metagossip_fetch_timeouts", "count"),
		lower("livenode.data_fetch_expired", "count"), lower("livenode.mining_attempts_per_block", "ratio"),
		lower("livenode.items_republished", "count"), lower("livenode.fetch_retries", "count"),

		lower("p2p.frames_sent", "count"), lower("p2p.bytes_sent", "count"), lower("p2p.send_errors", "count"),
		lower("p2p.write_deadline_hits", "count"), lower("p2p.broadcast_failed", "count"), lower("p2p.loop_rtt_us", "us"),

		lower("memnet.events", "count"), lower("memnet.delivered", "count"), lower("memnet.partition_kills", "count"),
		higher("memnet.events_per_s", "1/s"), lower("memnet.deliver_ns", "ns"),

		lower("chaos.wall_ms_per_vsec", "ms"), lower("chaos.timer_ns", "ns"),

		lower("meta.sign_us", "us"), lower("meta.verify_us", "us"), lower("meta.encode_ns", "ns"),
		lower("meta.decode_ns", "ns"), lower("meta.verifies_per_item_node", "ratio"),

		lower("block.seal_us_p50", "us"), lower("block.seal_us_max", "us"),
		lower("block.verify_self_us_p50", "us"), lower("block.verify_self_us_max", "us"),
		lower("block.encode_us_p50", "us"), lower("block.encode_us_max", "us"),
		lower("block.decode_us_p50", "us"), lower("block.decode_us_max", "us"),
		higher("block.items_per_block_p50", "count"), higher("block.items_per_block_max", "count"),
		lower("block.bytes_max", "count"),

		lower("pos.hit_ns", "ns"), lower("pos.validate_claim_us", "us"), lower("pos.ledger_apply_us", "us"),

		lower("alloc.place_us", "us"), lower("ufl.greedy_us", "us"),

		lower("engine.mine_ms_at_max_pool", "ms"), lower("engine.mine_ms_at_p50_pool", "ms"),
		lower("engine.add_metadata_us", "us"), lower("engine.receive_block_us", "us"),
		higher("engine.adopt_suffix_blocks_per_s", "1/s"),

		lower("chain.locator_us", "us"), lower("chain.add_us", "us"),

		lower("store.wal_appends", "count"), lower("store.wal_syncs", "count"),
		lower("store.wal_append_p50_us", "us"), lower("store.wal_fsync_p50_us", "us"),
		lower("store.recovery_blocks", "count"), lower("store.restart_wall_ms", "ms"),
		lower("store.wal_append_us_none", "us"), lower("store.wal_append_us_batch", "us"),
		lower("store.wal_append_us_always", "us"), lower("store.data_put_us", "us"),
		lower("store.data_get_hit_us", "us"), higher("store.recover_blocks_per_s", "1/s"),

		lower("repair.enqueued", "count"), higher("repair.completed", "count"), lower("repair.fallbacks", "count"),
		lower("repair.throttled", "count"), lower("repair.fetch_p50_ms", "ms"),
		lower("repair.index_apply_us", "us"), lower("repair.deficits_us", "us"),

		lower("telemetry.counter_ns", "ns"),

		higher("core.sim_vmin_per_s", "1/s"),
	}
	for _, layer := range cpuLayers {
		l = append(l, lower(layer+".cpu_share", "ratio"))
	}
	return l
}()

// gated returns the end-to-end metrics of BENCHMARK.json's end_to_end list.
func gated() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if m.Gated {
			out = append(out, m)
		}
	}
	return out
}

// perLayerList is BENCHMARK.json's per_layer list: the end-to-end metrics
// that are not gated, then the layers.
func perLayerList() []metricSpec {
	var out []metricSpec
	for _, m := range endToEnd {
		if !m.Gated {
			out = append(out, m)
		}
	}
	return append(out, layerMetrics...)
}
