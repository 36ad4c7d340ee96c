package livenode

import (
	"encoding/binary"
	"time"

	"repro/internal/p2p"
	"repro/internal/wire"
)

// Sampled liveness probing (DESIGN.md §15.2), after SWIM: direct evidence
// only has to reach a bounded sample per period, and third-party evidence
// rides along as piggybacked digests.
//
// Each tick a node sends an empty FrameRepairProbe (the link's hello named
// the prober) to a bounded deterministic sample of transport peers, which
// answer with FrameRepairProbeAck: a bounded digest of (index, age) entries
// drawn from a rotating cursor over the detector state. The prober merges
// entries that are newer than what it already knows, so liveness evidence
// spreads epidemically at O(n·fanout) frames per tick deployment-wide.
// Passive evidence (the hello, any frame from a bound address, the miner of
// every adopted block) and the membership sweep feed the same detector.
//
// Ages are relative (time since the responder last heard the node), so
// digests need no clock agreement. Entries silent past SuspectAfter+Hysteresis
// are omitted: they cannot change a verdict, and acks stay small exactly when
// many nodes are dead. A stale entry that does arrive is a no-op, as merges
// apply only evidence strictly newer than the local timestamp.
const (
	// minProbeFanout is the fewest peers probed per repair tick. Four keeps
	// expected detection latency a small constant number of periods (SWIM's
	// regime: miss probability per period decays exponentially in fanout).
	minProbeFanout = 4
	// probeRefreshTicks is the number of ticks within which the acks'
	// digests should have named every roster node (probeFanout).
	probeRefreshTicks = 8
	// probeDigestMax bounds the entries one ack carries. 16 entries of
	// adjacent indices younger than 64 s (127 units) take one byte each for
	// the gap and the age: 32 B of payload, 37 wire bytes with the header.
	probeDigestMax = 16
	// probeDigestUnit is the age quantum in digests: far below any sane
	// SuspectAfter, and coarse enough that every age under a 60 s dead
	// window is one varint byte; 0xFFFF units span 9.1 hours of silence.
	probeDigestUnit = 500 * time.Millisecond
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

// probeEntry is one digest entry: a roster index and its age in units.
type probeEntry struct{ idx, units int }

// appendProbeEntry appends e to an ack whose previous entry named prev (−1
// before the first): uvarint((e.idx − prev − 1) mod roster) ‖ uvarint(units).
func appendProbeEntry(dst []byte, roster, prev int, e probeEntry) []byte {
	gap := (e.idx - prev - 1 + roster) % roster
	return binary.AppendUvarint(binary.AppendUvarint(dst, uint64(gap)), uint64(e.units))
}

// decodeProbeAck reads an ack for an n-node roster into dst[:0]; the length
// implies the count. It refuses over probeDigestMax entries, a gap ≥ roster,
// entries spanning more than one roster cycle and units above 0xFFFF, so an
// accepted ack names distinct nodes and re-encodes to the same bytes.
func decodeProbeAck(dst []probeEntry, payload []byte, roster int) ([]probeEntry, bool) {
	r := wire.NewReader(payload)
	dst, pos := dst[:0], -1
	for r.Len() > 0 {
		gap, units := r.Uvarint(), r.Uvarint()
		if r.Err() != nil || len(dst) == probeDigestMax || gap >= uint64(roster) || units > 0xFFFF {
			return nil, false
		}
		if pos += int(gap) + 1; len(dst) > 0 && pos-dst[0].idx >= roster {
			return nil, false
		}
		dst = append(dst, probeEntry{pos % roster, int(units)})
	}
	return dst, true
}

// encodeProbeAckLocked builds a FrameRepairProbeAck payload (n.mu held): the
// entries a rotating cursor over the roster selects.
func (n *Node) encodeProbeAckLocked(now time.Duration) []byte {
	rd := n.repair
	out := make([]byte, 0, 2*probeDigestMax)
	count, prev := 0, -1
	stale := n.cfg.RepairSuspectAfter + n.cfg.RepairHysteresis
	roster := len(n.cfg.Accounts)
	for scanned := 0; scanned < roster && count < probeDigestMax; scanned++ {
		i := rd.digestCursor % roster
		rd.digestCursor++
		// Round the age UP: understating it would date merged evidence after
		// the responder's observation, and a digest bouncing between nodes
		// could creep a silent node's lastSeen forward one unit per hop.
		age := max(0, now-rd.det.LastSeen(i))
		units := (age + probeDigestUnit - 1) / probeDigestUnit
		if i == n.selfIdx || age >= stale || units > 0xFFFF {
			continue
		}
		out = appendProbeEntry(out, roster, prev, probeEntry{i, int(units)})
		prev = i
		count++
	}
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

// handleRepairProbeAck merges a bound peer's digest entries that are strictly
// newer than what the local detector knows (handleFrame counted the ack as
// direct evidence). Seen stays monotonic: a looping digest revives no one.
func (n *Node) handleRepairProbeAck(from string, payload []byte) {
	var buf [probeDigestMax]probeEntry
	entries, ok := decodeProbeAck(buf[:0], payload, len(n.cfg.Accounts))
	if !ok {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rd := n.repair
	if _, bound := n.idxOf[from]; rd == nil || n.closed || !bound {
		return
	}
	now, merged := n.now(), 0
	for _, e := range entries {
		if at := now - time.Duration(e.units)*probeDigestUnit; e.idx != n.selfIdx && at > rd.det.LastSeen(e.idx) {
			rd.det.Seen(e.idx, at)
			merged++
		}
	}
	n.tel.probeDigestMerged.Add(merged)
}
