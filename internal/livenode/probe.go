package livenode

import (
	"encoding/binary"
	"time"

	"repro/internal/p2p"
)

// Sampled liveness probing (DESIGN.md §15.2), after SWIM: direct evidence
// only has to reach a bounded sample per period, and third-party evidence
// rides along as piggybacked digests.
//
// Each tick a node sends an empty FrameRepairProbe (the link's hello named
// the prober) to a bounded deterministic sample of transport peers, which
// answer with FrameRepairProbeAck: a bounded digest of (index, age) pairs
// drawn from a rotating cursor over the detector state. The prober merges
// entries that are newer than what it already knows, so liveness evidence
// spreads epidemically at O(n·fanout) frames per tick deployment-wide.
// Passive evidence (the hello, any frame from a bound address, the miner of
// every adopted block) and the membership sweep feed the same detector.
//
// Digest ages are relative (duration since the responder last saw the
// node), so the encoding needs no clock agreement beyond the shared
// epoch the deployment already assumes. Entries silent past
// SuspectAfter+Hysteresis are omitted: replaying them cannot change any
// verdict, and dropping them keeps acks small exactly when many nodes
// are dead. A stale entry that does arrive is a no-op — merges apply
// only evidence strictly newer than the local timestamp, so digests can
// circulate forever without reviving a dead node.
const (
	// minProbeFanout is the fewest peers probed per repair tick. Four keeps
	// expected detection latency a small constant number of periods (SWIM's
	// regime: miss probability per period decays exponentially in fanout).
	minProbeFanout = 4
	// probeRefreshTicks is the number of ticks within which the acks'
	// digests should have named every roster node (probeFanout).
	probeRefreshTicks = 8
	// probeDigestMax bounds the (index, age) pairs one ack carries. 16
	// entries keep the ack at 71 wire bytes.
	probeDigestMax = 16
	// probeDigestUnit is the age quantum in digests. 100ms resolution is
	// far below any sane SuspectAfter, and a uint16 of units spans 109
	// minutes of silence — orders past the stale cutoff.
	probeDigestUnit = 100 * time.Millisecond
)

// probeFanout is how many peers a node of an n-node roster probes per repair
// tick: minProbeFanout, or enough that the acks' digests — each carries
// probeDigestMax entries besides the responder itself — name every roster
// node within about probeRefreshTicks ticks. It is 4 up to 544 nodes and 8 at
// 1000. A roster with fewer peers than that probes them all.
func probeFanout(n int) int {
	perTick := probeRefreshTicks * (probeDigestMax + 1)
	return max(minProbeFanout, (n+perTick-1)/perTick)
}

// encodeProbeAck builds a FrameRepairProbeAck payload (n.mu held): a 2-byte
// entry count, then (uint16 index, uint16 age-units) pairs selected by a
// rotating cursor over the roster.
func (n *Node) encodeProbeAckLocked(now time.Duration) []byte {
	rd := n.repair
	out := []byte{0, 0}
	count := 0
	stale := n.cfg.RepairSuspectAfter + n.cfg.RepairHysteresis
	roster := len(n.cfg.Accounts)
	for scanned := 0; scanned < roster && count < probeDigestMax; scanned++ {
		i := rd.digestCursor % roster
		rd.digestCursor++
		if i == n.selfIdx {
			continue
		}
		age := now - rd.det.LastSeen(i)
		if age < 0 {
			age = 0
		}
		if age >= stale {
			continue
		}
		// Round UP to the unit: understating an age would timestamp the
		// merged evidence after the responder's real observation, and a
		// digest bouncing between nodes could then creep a silent node's
		// lastSeen forward ~one unit per hop, forever. Overstating only
		// makes third-party evidence (at most one unit) conservative.
		units := (age + probeDigestUnit - 1) / probeDigestUnit
		if units > 0xFFFF {
			continue
		}
		out = binary.BigEndian.AppendUint16(out, uint16(i))
		out = binary.BigEndian.AppendUint16(out, uint16(units))
		count++
	}
	binary.BigEndian.PutUint16(out, uint16(count))
	return out
}

// handleRepairProbe answers a liveness probe from a bound peer with the
// digest-carrying ack; handleFrame has already counted the probe as
// evidence that the prober is alive.
func (n *Node) handleRepairProbe(from string, payload []byte) {
	if len(payload) != 0 {
		return
	}
	n.mu.Lock()
	if _, bound := n.idxOf[from]; n.repair == nil || n.closed || !bound {
		n.mu.Unlock()
		return
	}
	ack := n.encodeProbeAckLocked(n.now())
	n.mu.Unlock()
	n.tel.probeAcks.Inc()
	n.send(from, p2p.FrameRepairProbeAck, ack)
}

// handleRepairProbeAck merges a bound peer's digest entries that are
// strictly newer than what the local detector knows (handleFrame counted the
// ack itself as direct evidence). The merge keeps Seen timestamps monotonic,
// so a looping digest cannot revive a node silent past its entries' ages.
func (n *Node) handleRepairProbeAck(from string, payload []byte) {
	if len(payload) < 2 {
		return
	}
	count := int(binary.BigEndian.Uint16(payload))
	if count > probeDigestMax || len(payload) != 2+count*4 {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rd := n.repair
	if _, bound := n.idxOf[from]; rd == nil || n.closed || !bound {
		return
	}
	now := n.now()
	merged := 0
	for e := 0; e < count; e++ {
		off := 2 + e*4
		j := int(binary.BigEndian.Uint16(payload[off:]))
		age := time.Duration(binary.BigEndian.Uint16(payload[off+2:])) * probeDigestUnit
		if j == n.selfIdx || j >= len(n.cfg.Accounts) {
			continue
		}
		at := now - age
		if at > rd.det.LastSeen(j) {
			rd.det.Seen(j, at)
			merged++
		}
	}
	n.tel.probeDigestMerged.Add(merged)
}
