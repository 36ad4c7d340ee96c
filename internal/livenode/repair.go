package livenode

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/alloc"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/repair"
	"repro/internal/sim"
)

// Self-healing data plane (DESIGN.md §11). The repair driver glues the
// pure components of internal/repair to the node's I/O:
//
//	engine.StorageView's repair.Index — who should hold what, derived from
//	   the chain (and restored with it from a snapshot); read at n.now()
//	transport (probes, any frame, membership, mined blocks)
//	   └─▶ repair.Detector  — who is alive / suspect / dead
//	repairTick (every RepairProbeEvery)
//	   └─▶ self-audit + repair.Limiter — which assigned items this node
//	        lacks, re-fetched under the worker bound and a byte-rate budget
//
// The engine side closes the loop: its Liveness callback reads the
// detector, so mined blocks re-announce under-replicated items onto alive
// nodes (engine.pickRepairs), and the newly assigned nodes' next audit finds
// the items missing and fetches them. The plane keeps no task list: what to
// fetch is the chain's assignment minus the local store, read afresh every
// tick, and what is in flight is the fetch table's repair entries. A fetch it
// launches is a data fetch (fetch.go) with the repair purpose, which marks
// its requests so that both ends charge them to the budget.
//
// Liveness evidence is deliberately cheap: the link's hello, an empty probe
// to a bounded peer sample per tick (probe.go), passive refresh on every
// frame from an address a hello bound, a membership sweep against the
// transport's peer list, and the miner of every adopted block (at the
// block's timestamp). The hello is unsigned — a forged binding cannot
// inject data (content is verified against its hash) and self-corrects: a
// fetch from a wrong address fails verification or times out and moves to
// the next candidate.
const (
	// repairFrameOverhead approximates the fixed wire cost of one frame of a
	// repair fetch (length prefix, type byte, data ID) for rate-limiting.
	repairFrameOverhead = 32

	// repairRate is the repair plane's token-bucket byte budget in bytes per
	// second; it keeps background re-replication traffic strictly below
	// consensus traffic. Both ends of every repair fetch pay from it; the
	// bucket holds one second's worth, and an item larger than that passes a
	// full bucket and leaves it in debt.
	repairRate = 4096

	defaultRepairProbeEvery = 2 * time.Second
	defaultRepairSuspect    = 6 * time.Second
	defaultRepairHysteresis = 10 * time.Second
)

// repairDriver is the per-node repair state; nil when repair is disabled
// (Config.RepairWorkers == 0). All fields are guarded by Node.mu.
type repairDriver struct {
	det *repair.Detector
	lim *repair.Limiter

	timer sim.Timer

	// Sampled liveness probing (DESIGN.md §15.2). The rng is seeded
	// separately from the gossip plane's so probe sampling never perturbs
	// block/meta relay draws (and vice versa) in deterministic runs.
	rng          *rand.Rand
	digestCursor int // rotating roster cursor for ack digest selection

	// auditCursor is where the next self-audit starts in this node's sorted
	// assignment list: one past the item launched last, so that an item
	// nobody can serve does not keep the worker slots from the rest.
	auditCursor int
}

// initRepair builds the repair driver (called from New before engine.New so
// the engine's Liveness callback can read the detector). Returns nil when
// repair is disabled.
func (n *Node) initRepair() *repairDriver {
	if n.cfg.RepairWorkers <= 0 {
		return nil
	}
	now := n.now()
	return &repairDriver{
		det: repair.NewDetector(repair.DetectorConfig{
			N:            len(n.cfg.Accounts),
			Self:         n.selfIdx,
			SuspectAfter: n.cfg.RepairSuspectAfter,
			Hysteresis:   n.cfg.RepairHysteresis,
		}, now),
		lim: repair.NewLimiter(repairRate, 0, now),
		// Distinct multiplier from the gossip RNG seed: the two planes
		// must draw independent deterministic streams.
		rng: rand.New(rand.NewSource(n.cfg.GenesisSeed ^ (int64(n.selfIdx+1) * 0x7F4A7C15))),
	}
}

// scheduleRepairLocked arms the periodic repair tick (n.mu held).
func (n *Node) scheduleRepairLocked() {
	rd := n.repair
	if rd == nil || n.closed {
		return
	}
	if rd.timer != nil {
		rd.timer.Stop()
	}
	rd.timer = n.clock.AfterFunc(n.cfg.RepairProbeEvery, n.repairTick)
}

// noteFrameFrom refreshes passive liveness for any frame from a mapped
// transport address (called at the top of handleFrame, before n.mu is
// taken by the per-frame logic).
func (n *Node) noteFrameFrom(from string) {
	if n.repair == nil {
		return // set once in New: no lock needed to see that repair is off
	}
	n.mu.Lock()
	if i, ok := n.idxOf[from]; ok {
		n.repair.det.Seen(i, n.now())
	}
	n.mu.Unlock()
}

// repairTick is the repair plane's heartbeat: it refreshes liveness
// evidence (sampled probes), sweeps membership and audits this node's
// assignments, launching repair fetches for what the store lacks under the
// worker and byte-rate budgets. Network sends happen after n.mu is released.
func (n *Node) repairTick() {
	peers := n.net.Peers() // transport snapshot, taken outside n.mu
	var launches []meta.DataID
	n.mu.Lock()
	rd := n.repair
	if rd == nil || n.closed {
		n.mu.Unlock()
		return
	}
	nowD := n.now()
	// Sampled probing (§15.2): direct evidence to a bounded deterministic
	// sample per tick; third-party evidence arrives as ack digests.
	probeTargets := samplePeersLocked(rd.rng, peers, "", probeFanout(len(n.cfg.Accounts)))

	// Membership sweep: a roster node whose known address dropped off the
	// transport's (sorted) peer list accumulates failures toward Suspect.
	for i, a := range n.addrOf {
		if a == "" {
			continue
		}
		if j := sort.SearchStrings(peers, a); j == len(peers) || peers[j] != a {
			rd.det.Fail(i)
		}
	}

	// Self-audit: every live item the chain assigns to this node whose bytes
	// the local store lacks is fetched with the repair purpose. That covers a
	// re-announcement onto this node (onAppend leaves it to this tick), a
	// node that restarted with its chain already current and so adopts
	// nothing, and a repair fetch whose holders ran out, which a later tick
	// launches afresh. The engine's index covers assignments below a pruned
	// body window or a snapshot anchor, and is read afresh: AdoptSuffix swaps
	// the view. An item whose fetch is still at work is left to it: a repair
	// fetch holds one of the RepairWorkers slots until it ends, and a
	// placement or consumer fetch may yet be answered.
	free := n.cfg.RepairWorkers
	for _, pf := range n.fetches.pending {
		if pf.repair {
			free--
		}
	}
	items := n.eng.View().Index().Items(n.selfIdx)
	for k, from := 0, rd.auditCursor; k < len(items) && free > 0; k++ {
		i := (from + k) % len(items)
		id := items[i]
		if n.store.HasData(id) {
			continue
		}
		if n.fetches.pending[id] != nil {
			continue
		}
		if !rd.lim.Allow(nowD, repairFrameOverhead) {
			n.tel.repairThrottled.Inc()
			break // out of byte budget: the rest waits for the refill
		}
		n.tel.repairLaunched.Inc()
		launches = append(launches, id)
		rd.auditCursor = i + 1
		free--
	}

	n.updateRepairGaugesLocked(nowD)
	n.scheduleRepairLocked()
	n.mu.Unlock()

	for _, p := range probeTargets {
		n.tel.probesSent.Inc()
		n.send(p, p2p.FrameRepairProbe, nil)
	}
	for _, id := range launches {
		n.requestData(id, repairFetch)
	}
}

// updateRepairGaugesLocked refreshes the under-replication and dead-node
// gauges (n.mu held).
func (n *Node) updateRepairGaugesLocked(now time.Duration) {
	rd := n.repair
	dead := func(i int) bool { return rd.det.Status(i, now) == repair.Dead }
	n.tel.underReplicated.Set(int64(len(n.eng.View().Index().Deficits(now, alloc.DefaultMinReplicas, dead))))
	n.tel.deadNodes.Set(int64(rd.det.CountDead(now)))
}

// --- counted wire helpers ----------------------------------------------------
//
// Every application frame goes out through these wrappers so telemetry can
// split wire bytes into consensus, data and repair traffic; the chaos
// suite asserts the §11 invariant (repair strictly below consensus) from
// the resulting counters. The 5 accounts for the frame header (4-byte
// length + 1-byte type).

func (n *Node) countWire(ft byte, payloadLen, copies int) {
	if copies <= 0 {
		return
	}
	bytes := (payloadLen + 5) * copies
	switch ft {
	case p2p.FrameDataRequest, p2p.FrameData:
		// Data or repair traffic by the purpose of the fetch: sendFetch.
	case p2p.FrameRepairProbe, p2p.FrameRepairProbeAck:
		// Liveness traffic alone — the bytes the §15.2 sampled-probe gate
		// bounds.
		n.tel.wireRepairBytes.Add(bytes)
		n.tel.wireHeartbeatBytes.Add(bytes)
	case p2p.FrameMeta, p2p.FrameMetaAnnounce, p2p.FrameGetMeta:
		// Metadata propagation (announce/fetch exchange) — the bytes the
		// §15.1 metadata-relay gate bounds.
		n.tel.wireConsensusBytes.Add(bytes)
		n.tel.wireMetaBytes.Add(bytes)
	case p2p.FrameGetBlock, p2p.FrameCompactBlock:
		// Block propagation proper (the fetch exchange) — the bytes the
		// §13 block-relay gate bounds.
		n.tel.wireConsensusBytes.Add(bytes)
		n.tel.wireBlockBytes.Add(bytes)
	case p2p.FrameBlockAnnounce:
		n.tel.wireConsensusBytes.Add(bytes)
		n.tel.wireBlockBytes.Add(bytes)
		n.tel.wireAnnounceBytes.Add(bytes)
	case p2p.FrameGetSnapshot, p2p.FrameSnapshot:
		// Snapshot bootstrap traffic (DESIGN.md §14) — split out so the
		// cold-join gate can compare it against suffix-sync bytes.
		n.tel.wireConsensusBytes.Add(bytes)
		n.tel.wireSnapshotBytes.Add(bytes)
	default:
		n.tel.wireConsensusBytes.Add(bytes)
	}
}

// send is the counted p2p.Transport.Send; a failed send toward a mapped
// roster node feeds the churn detector.
func (n *Node) send(peer string, ft byte, payload []byte) error {
	err := n.net.Send(peer, ft, payload)
	if err != nil {
		n.mu.Lock()
		if rd := n.repair; rd != nil {
			if i, ok := n.idxOf[peer]; ok {
				rd.det.Fail(i)
			}
		}
		n.mu.Unlock()
		return err
	}
	n.countWire(ft, len(payload), 1)
	return nil
}
