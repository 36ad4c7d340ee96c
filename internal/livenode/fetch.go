package livenode

import (
	"cmp"
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/repair"
)

// Directed data fetch (DESIGN.md §11.1), the one read path. The paper places
// every item so a consumer can read it from a nearby storing node (§IV-D); a
// fetch therefore asks ONE holder at a time — the item's on-chain storing
// nodes, then its producer — and a holder without the bytes says so at once
// with the bare ID, so the next is asked without waiting. When the walk runs
// out the fetch ends: a reader asks again, the repair plane's next audit
// relaunches, and a storer on a moving radio field walks again after a
// mobility step. Asking a node needs its transport address: the roster ↔
// address table below is filled by the links' hellos, which name each peer by
// roster index once, as the link comes up.
//
// Bindings are unsigned: content is verified against its ID before it is
// stored, so a forged binding can only cost the fetch that candidate, and the
// real node's next hello takes its index back.

// fetchPurpose says why a data item is fetched — a consumer's read, a new
// storer's placement fetch and the repair plane's re-replication are the same
// fetch — and picks the candidate order, what a walk that runs out does and
// who pays.
type fetchPurpose uint8

const (
	consumerFetch fetchPurpose = iota
	placementFetch
	repairFetch
)

// repairMark, a data request's last byte on a repair fetch, has the holder
// charge its answer to the repair budget, and both ends count the exchange as
// repair traffic. Other requests end in 0.
const repairMark = 1

// handleHello binds the roster index a peer's hello carries, a uvarint, to
// the address the link names it by. The hello is booked as the frame it
// would be on its own (5 B of header and the index) in data_bytes: the data
// plane is what the table serves.
func (n *Node) handleHello(from string, hello []byte) {
	i, k := binary.Uvarint(hello)
	if k <= 0 || k != len(hello) || i >= uint64(len(n.addrOf)) {
		return
	}
	n.mu.Lock()
	if n.bindAddrLocked(int(i), from) {
		n.tel.wireDataBytes.Add(5 + len(hello))
	}
	n.mu.Unlock()
}

// bindAddrLocked records that roster node i speaks from transport address
// from and, with repair on, counts the hello as liveness evidence (n.mu
// held). It keeps the table one-to-one and reports false for an index that
// is out of range or this node's own.
func (n *Node) bindAddrLocked(i int, from string) bool {
	if i < 0 || i >= len(n.addrOf) || i == n.selfIdx {
		return false
	}
	if n.addrOf[i] != from {
		if j, ok := n.idxOf[from]; ok {
			n.addrOf[j] = "" // one address speaks for one node: its last claim
		}
		delete(n.idxOf, n.addrOf[i])
		n.addrOf[i], n.idxOf[from] = from, i
		n.tel.rosterBound.Set(int64(len(n.idxOf)))
	}
	if n.repair != nil {
		n.repair.det.Seen(i, n.now())
	}
	return true
}

// fetchCandidatesLocked lists the addresses to ask for id (n.mu held). A
// consumer starts at the storing node nearest to it in hops; on a clique,
// where all are one hop away, at the one its own roster index selects, so
// requesters spread over the replicas without an RNG draw. It asks the
// producer last; a storing node fetching its own copy, placement or repair,
// asks the producer first, because the other assigned storers may be fetching
// at the same moment and only the producer is sure to have the bytes.
// With a churn detector, holders it calls dead are skipped and suspect ones
// go after the alive. An item this node cannot resolve, or whose holders it
// has no address for, has no candidates.
func (n *Node) fetchCandidatesLocked(id meta.DataID, purpose fetchPurpose) []string {
	it := n.resolveItemLocked(id)
	if it == nil {
		return nil
	}
	order := make([]int, 0, len(it.StoringNodes)+1)
	for k := range it.StoringNodes {
		order = append(order, it.StoringNodes[(k+n.selfIdx)%len(it.StoringNodes)])
	}
	if r := n.radio; r != nil {
		// On a radio field the nearest holder goes first (§IV-D, eq. 2's
		// reason to place near the consumers); equal distances keep the
		// rotation.
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(r.Hops(n.selfIdx, a), r.Hops(n.selfIdx, b))
		})
	}
	if p, ok := n.eng.Ledger().IndexOf(it.Producer); ok {
		if purpose != consumerFetch {
			order = slices.Insert(order, 0, p)
		} else {
			order = append(order, p)
		}
	}
	now := n.now()
	var cands, suspect []string
	for _, i := range order {
		if i < 0 || i >= len(n.addrOf) || i == n.selfIdx {
			continue
		}
		a := n.addrOf[i]
		if a == "" || slices.Contains(cands, a) || slices.Contains(suspect, a) {
			continue
		}
		status := repair.Alive
		if n.repair != nil {
			status = n.repair.det.Status(i, now)
		}
		switch status {
		case repair.Alive:
			cands = append(cands, a)
		case repair.Suspect:
			suspect = append(suspect, a)
		}
	}
	return append(cands, suspect...)
}

// RequestData fetches a data item from one of its holders; OnData fires when
// verified content arrives. While a fetch for id is pending a repeated call
// changes nothing. A fetch whose candidates all failed has ended, and a
// repeated call walks them again.
func (n *Node) RequestData(id meta.DataID) { n.requestData(id, consumerFetch) }

func (n *Node) requestData(id meta.DataID, purpose fetchPurpose) {
	n.mu.Lock()
	var pf *pendingFetch
	if n.fetches.pending[id] == nil && !n.closed {
		pf = n.fetches.begin(id, n.fetchCandidatesLocked(id, purpose))
		pf.repair = purpose == repairFetch
		pf.read = purpose == consumerFetch
	}
	n.mu.Unlock()
	if pf != nil {
		n.fetches.advance(id, pf)
	}
}

// newDataFetcher builds the data plane's fetch table (fetcher.go): one holder
// is asked at a time, a holder the transport cannot reach is skipped at once,
// and one that refuses (handleData) is left at once.
func (n *Node) newDataFetcher() *fetcher[meta.DataID] {
	f := newFetcher[meta.DataID](&n.mu, n.clock)
	f.ask = func(id meta.DataID, pf *pendingFetch, to string) bool {
		n.tel.fetchDirected.Inc()
		if to != pf.cands[0] {
			n.tel.fetchNextCandidate.Inc()
		}
		var mark byte
		if pf.repair {
			mark = repairMark
		}
		return n.sendFetch(to, p2p.FrameDataRequest, append(id[:], mark), pf.repair)
	}
	f.exhausted = func(id meta.DataID, pf *pendingFetch) (time.Duration, func()) {
		if n.repair == nil && n.radio != nil && !pf.read && slices.Contains(n.eng.View().Assignment(id), n.selfIdx) {
			// With repair on, the next probe tick's self-audit retries a
			// storer's own copy; without it nothing else does. On a radio
			// field a moving node may have had every holder out of reach, so
			// it walks again once the nodes have moved; on a clique, or a
			// field that stands still, the walk would only repeat itself.
			return n.radio.MobilityEpoch(), nil
		}
		return 0, nil
	}
	return f
}

// sendFetch is send for one frame of a data fetch, booked as repair traffic
// if the fetch re-replicates and as data traffic otherwise (5 = frame header;
// countWire leaves these two frame types to their fetch).
func (n *Node) sendFetch(to string, ft byte, payload []byte, repair bool) bool {
	if n.send(to, ft, payload) != nil {
		return false
	}
	c := n.tel.wireDataBytes
	if repair {
		c = n.tel.wireRepairBytes
	}
	c.Add(len(payload) + 5)
	return true
}

// handleDataRequest answers a fetch: with the content if this node holds it,
// with the bare ID (a nack) if it does not. The payload is DataID ‖ mark byte
// (0, or repairMark); the answer goes to the sender. The answer to a marked
// request is paid from this node's repair budget: denied means no answer, and
// the requester moves on to its next candidate after syncTimeout — the rate
// limit doing its job.
func (n *Node) handleDataRequest(from string, payload []byte) {
	var id meta.DataID
	if len(payload) != len(id)+1 || payload[len(id)] > repairMark {
		return
	}
	copy(id[:], payload)
	repairReq := payload[len(id)] == repairMark
	// The answer is ID ‖ content, built in one buffer: the request's ID
	// capped at its own length, so the store's append allocates the frame
	// and never writes into the request. Not held, it is the ID alone.
	answer, held := n.store.AppendData(payload[:len(id):len(id)], id)
	n.mu.Lock()
	denied := held && repairReq && n.repair != nil && !n.repair.lim.Allow(n.now(), repairFrameOverhead+len(answer)-len(id))
	n.mu.Unlock()
	if denied {
		n.tel.repairThrottled.Inc()
	}
	if denied {
		return
	}
	n.sendFetch(from, p2p.FrameData, answer, repairReq)
}

// handleData ingests a fetch answer. Only content this node has a pending
// fetch for and that hashes to its ID (§III-B2 data integrity) is stored;
// unsolicited frames are dropped before the hash, which runs in place: the
// content is a view into the frame (immutable after Send), handed as is to
// PutData and OnData. An answer that fails the hash — a holder's nack, the
// bare ID, or bytes that are not the item — moves the walk on at once if it
// came from the candidate asked last; from anyone else it is dropped. The
// empty item's bare ID does hash to its ID, and is stored.
func (n *Node) handleData(from string, payload []byte) {
	var id meta.DataID
	if len(payload) < len(id) {
		return
	}
	copy(id[:], payload)
	n.mu.Lock()
	asked := n.fetches.pending[id] != nil
	n.mu.Unlock()
	if !asked {
		return
	}
	content := payload[len(id):]
	dup := n.store.HasData(id)
	if !dup {
		if meta.HashData(content) != id {
			n.fetches.refused(id, from)
			return
		}
		if err := n.store.PutData(id, content); err != nil {
			return
		}
	}
	n.mu.Lock()
	cb := n.onData
	if pf := n.fetches.finish(id); pf != nil {
		lat := int64(n.clock.Now().Sub(pf.start))
		if pf.repair {
			n.tel.repairFetchNs.Observe(lat)
			n.tel.repairCompleted.Inc()
		} else {
			n.tel.dataFetchNs.Observe(lat)
			if pf.read {
				n.tel.dataReadNs.Observe(lat)
			}
		}
	}
	n.mu.Unlock()
	if !dup && cb != nil {
		cb(id, content)
	}
}

// clearFetchesLocked drops the pending fetches of all three planes and their
// timers (n.mu held).
func (n *Node) clearFetchesLocked() {
	n.gossip.blocks.clear()
	n.gossip.metas.clear()
	n.fetches.clear()
}
