package livenode

import (
	"encoding/binary"
	"slices"

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
	pf := n.fetches.get(id)
	if pf == nil && !n.closed {
		pf = n.fetches.begin(id, n.fetchCandidatesLocked(id, placement), n.cfg.FetchTimeout)
	}
	idle := pf != nil && !pf.waiting() // new, or broadcasting already
	n.mu.Unlock()
	if idle {
		n.fetches.advance(id, pf)
	}
}

// newDataFetcher builds the data plane's fetch table (fetcher.go): one holder
// is asked at a time, a holder the transport cannot reach is skipped at once,
// and with no candidate left the request is broadcast — any holder may answer,
// as before the fetch was directed — and the fetch waits for its expiry.
func (n *Node) newDataFetcher() *fetcher[meta.DataID] {
	f := newFetcher[meta.DataID](&n.mu, n.clock, n.cfg.SyncTimeout)
	request := func(id meta.DataID) []byte {
		return binary.BigEndian.AppendUint32(id[:], uint32(n.selfIdx))
	}
	f.ask = func(id meta.DataID, pf *pendingFetch, to string) bool {
		n.tel.fetchDirected.Inc()
		if to != pf.cands[0] {
			n.tel.fetchNextCandidate.Inc()
		}
		return n.send(to, p2p.FrameDataRequest, request(id)) == nil
	}
	f.exhausted = func(id meta.DataID, _ *pendingFetch) func() {
		n.tel.fetchBroadcasts.Inc()
		return func() { n.bcast(p2p.FrameDataRequest, request(id)) }
	}
	f.expired = func(meta.DataID, *pendingFetch) { n.tel.dataFetchExpired.Inc() }
	return f
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
	asked := n.fetches.get(id) != nil || (n.repair != nil && n.repair.queue.Has(id))
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
	if pf := n.fetches.finish(id); pf != nil {
		n.tel.dataFetchNs.Observe(int64(n.clock.Now().Sub(pf.start)))
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

// clearFetchesLocked drops the pending fetches of all three planes and their
// timers (n.mu held); Close, Kill and test teardowns call it.
func (n *Node) clearFetchesLocked() {
	n.gossip.blocks.clear()
	n.gossip.metas.clear()
	n.fetches.clear()
}
