package livenode

import (
	"encoding/binary"
	"slices"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
)

// Directed data fetch (DESIGN.md §11.1). The paper places every item so a
// consumer can read it from a nearby storing node (§IV-D); a fetch therefore
// asks ONE holder at a time — the item's on-chain storing nodes, then its
// producer — and falls through to a broadcast only when it knows nobody to
// ask or everybody it asked stayed silent. Asking a node needs its transport
// address: the roster ↔ address table below is learned lazily from frames
// that carry a roster index anyway (the data request itself, repair
// announces, probes and acks), never from a handshake.
//
// Bindings are unsigned, like the repair announce: content is verified
// against its ID before it is stored, so a forged binding can only cost the
// fetch one SyncTimeout, and the real node's next frame overwrites it.

// pendingData is the one pending fetch of a data item (guarded by Node.mu).
type pendingData struct {
	start   time.Time // first request: fetch latency counts from here
	cands   []string  // holders to ask, in order; past the end the fetch broadcasts
	next    int       // cands[:next] have been asked
	attempt Timer     // SyncTimeout on the candidate asked last
	expiry  Timer     // FetchTimeout on the whole fetch
}

// bindAddrLocked records that roster node i speaks from transport address
// from and, with repair on, counts the frame as liveness evidence (n.mu
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
// consumer starts at the storing node its own roster index selects, so
// requesters spread over the replicas without an RNG draw, and asks the
// producer last; a placement fetch asks the producer first, because the
// other assigned storers are fetching at the same moment. An item this node
// cannot resolve, or whose holders it has no address for, has no candidates.
func (n *Node) fetchCandidatesLocked(id meta.DataID, placement bool) []string {
	it := n.resolveItemLocked(id)
	if it == nil {
		return nil
	}
	order := make([]int, 0, len(it.StoringNodes)+1)
	for k := range it.StoringNodes {
		order = append(order, it.StoringNodes[(k+n.selfIdx)%len(it.StoringNodes)])
	}
	if p, ok := n.eng.Ledger().IndexOf(it.Producer); ok {
		if placement {
			order = slices.Insert(order, 0, p)
		} else {
			order = append(order, p)
		}
	}
	var cands []string
	for _, i := range order {
		if i < 0 || i >= len(n.addrOf) || i == n.selfIdx {
			continue
		}
		if a := n.addrOf[i]; a != "" && !slices.Contains(cands, a) {
			cands = append(cands, a)
		}
	}
	return cands
}

// RequestData fetches a data item from one of its holders; OnData fires when
// verified content arrives. While a fetch for id is pending a repeated call
// restarts nothing: it only repeats the broadcast of a fetch that has run
// out of candidates. A fetch nobody answers is dropped after FetchTimeout.
func (n *Node) RequestData(id meta.DataID) { n.requestData(id, false) }

func (n *Node) requestData(id meta.DataID, placement bool) {
	n.mu.Lock()
	pf := n.fetches[id]
	if pf == nil && !n.closed {
		pf = &pendingData{start: n.clock.Now(), cands: n.fetchCandidatesLocked(id, placement)}
		pf.expiry = n.clock.AfterFunc(n.cfg.FetchTimeout, func() { n.expireFetch(id, pf) })
		n.fetches[id] = pf
	}
	idle := pf != nil && pf.attempt == nil // new, or broadcasting already
	n.mu.Unlock()
	if idle {
		n.askNext(id, pf)
	}
}

// askNext sends the request of a pending fetch to its next candidate — the
// attempt timer calls it when the last one stayed silent — and moves on at
// once past a candidate the transport cannot reach. With no candidate left
// it broadcasts: any holder may answer, as before the fetch was directed.
func (n *Node) askNext(id meta.DataID, pf *pendingData) {
	req := binary.BigEndian.AppendUint32(id[:], uint32(n.selfIdx))
	for {
		n.mu.Lock()
		if n.fetches[id] != pf {
			n.mu.Unlock()
			return // answered, expired or closed meanwhile
		}
		if pf.attempt != nil {
			pf.attempt.Stop()
			pf.attempt = nil
		}
		if pf.next == len(pf.cands) {
			n.mu.Unlock()
			n.tel.fetchBroadcasts.Inc()
			n.bcast(p2p.FrameDataRequest, req)
			return
		}
		addr := pf.cands[pf.next]
		pf.next++
		pf.attempt = n.clock.AfterFunc(n.cfg.SyncTimeout, func() { n.askNext(id, pf) })
		n.mu.Unlock()
		n.tel.fetchDirected.Inc()
		if pf.next > 1 {
			n.tel.fetchNextCandidate.Inc()
		}
		if n.send(addr, p2p.FrameDataRequest, req) == nil {
			return
		}
	}
}

// finishFetchLocked ends the pending fetch of id, if any, stopping the
// timers it owns (n.mu held). It returns when the fetch began.
func (n *Node) finishFetchLocked(id meta.DataID) (start time.Time, ok bool) {
	pf := n.fetches[id]
	if pf == nil {
		return start, false
	}
	delete(n.fetches, id)
	pf.expiry.Stop()
	if pf.attempt != nil {
		pf.attempt.Stop()
	}
	return pf.start, true
}

// expireFetch drops a fetch nobody answered within FetchTimeout. The entry
// pointer identifies the registration: a later fetch of the same ID is not
// this timer's to touch.
func (n *Node) expireFetch(id meta.DataID, pf *pendingData) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.fetches[id] == pf {
		n.finishFetchLocked(id)
		n.tel.dataFetchExpired.Inc()
	}
}

// clearFetchesLocked drops every pending fetch and its timers (n.mu held);
// Close and Kill call it.
func (n *Node) clearFetchesLocked() {
	for id := range n.fetches {
		n.finishFetchLocked(id)
	}
}

// handleDataRequest answers a fetch if this node holds the content. The
// payload is DataID ‖ u32 requester roster index; the index teaches this
// node the requester's address.
func (n *Node) handleDataRequest(from string, payload []byte) {
	var id meta.DataID
	if len(payload) != len(id)+4 {
		return
	}
	copy(id[:], payload)
	n.mu.Lock()
	n.bindAddrLocked(int(binary.BigEndian.Uint32(payload[len(id):])), from)
	n.mu.Unlock()
	if content, ok := n.store.GetData(id); ok {
		n.send(from, p2p.FrameData, append(id[:], content...))
	}
}

// handleData ingests a fetch answer — FrameData, or FrameRepairData from the
// repair plane's targeted fetch. Only content this node asked for (a pending
// fetch or a queued repair task) and that hashes to its ID (§III-B2 data
// integrity) is stored; unsolicited frames and the late duplicate answers to
// a broadcast are dropped before the copy and the hash.
func (n *Node) handleData(payload []byte, targeted bool) {
	var id meta.DataID
	if len(payload) < len(id) {
		return
	}
	copy(id[:], payload)
	n.mu.Lock()
	asked := n.fetches[id] != nil || (n.repair != nil && n.repair.queue.Has(id))
	n.mu.Unlock()
	if !asked {
		return
	}
	dup := n.store.HasData(id)
	var content []byte
	if !dup {
		content = append([]byte(nil), payload[len(id):]...)
		if meta.HashData(content) != id {
			return // forged or corrupt: the fetch moves on after its timeout
		}
		if err := n.store.PutData(id, content); err != nil {
			return
		}
	}
	n.mu.Lock()
	cb := n.onData
	if start, ok := n.finishFetchLocked(id); ok {
		n.tel.dataFetchNs.Observe(int64(n.clock.Now().Sub(start)))
	}
	if rd := n.repair; rd != nil {
		if lat, wasInflight := rd.queue.Done(id, n.now()); wasInflight && targeted {
			n.tel.repairFetchNs.Observe(int64(lat))
			n.tel.repairCompleted.Inc()
		}
	}
	n.mu.Unlock()
	if !dup && cb != nil {
		cb(id, content)
	}
}
