package core

import (
	"errors"
	"slices"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/netsim"
)

func errorsIs(err, target error) bool { return errors.Is(err, target) }

// --- data access (Section IV-D) -------------------------------------------

// candidatesFor orders the nodes that can serve an item by hop distance:
// assigned storing nodes first, then the producer as a last resort.
func (n *Node) candidatesFor(it *meta.Item) []int {
	topo := n.sys.net.Topology()
	seen := map[int]bool{n.id: true}
	var cands []int
	add := func(c int) {
		if c >= 0 && c < n.sys.cfg.NumNodes && !seen[c] {
			seen[c] = true
			cands = append(cands, c)
		}
	}
	for _, sn := range it.StoringNodes {
		add(sn)
	}
	sort.Slice(cands, func(a, b int) bool {
		return topo.Hops(netsim.NodeID(n.id), netsim.NodeID(cands[a])) <
			topo.Hops(netsim.NodeID(n.id), netsim.NodeID(cands[b]))
	})
	if p, ok := n.sys.addrToNode[it.Producer]; ok {
		add(p)
	}
	return cands
}

// startConsume issues a data request as a consumer; the delivery time is
// the Fig. 4(c)/5(a) metric.
func (n *Node) startConsume(it *meta.Item) {
	if !n.joined || n.consumed[it.ID] || n.dataStore[it.ID] || n.ownData[it.ID] {
		return
	}
	if it.Expired(n.sys.clock.Elapsed()) {
		return
	}
	cands := n.candidatesFor(it)
	if len(cands) == 0 {
		n.sys.stats.failedRequests++
		return
	}
	n.beginRequest(reqConsume, it.ID, cands)
}

// startFetch pulls an assigned item from its producer (proactive storage).
func (n *Node) startFetch(it *meta.Item) { n.startFetchFrom(it, nil) }

// startFetchFrom pulls an assigned item, trying the preferred sources
// first (migration hands the previous holders here), then the producer,
// then the other newly assigned nodes.
func (n *Node) startFetchFrom(it *meta.Item, preferred []int) {
	p, hasProducer := n.sys.addrToNode[it.Producer]
	seen := map[int]bool{n.id: true}
	var cands []int
	add := func(c int) {
		if c >= 0 && c < n.sys.cfg.NumNodes && !seen[c] {
			seen[c] = true
			cands = append(cands, c)
		}
	}
	for _, src := range preferred {
		add(src)
	}
	if hasProducer {
		add(p)
	}
	for _, sn := range it.StoringNodes {
		add(sn)
	}
	if len(cands) == 0 {
		delete(n.pendingFetch, it.ID)
		return
	}
	n.beginRequest(reqFetch, it.ID, cands)
}

func (n *Node) beginRequest(kind requestKind, id meta.DataID, cands []int) {
	n.nextSeq++
	req := &pendingRequest{
		kind:       kind,
		id:         id,
		candidates: cands,
		start:      n.sys.clock.Elapsed(),
	}
	n.pending[n.nextSeq] = req
	n.tryNextCandidate(n.nextSeq, req)
}

func (n *Node) tryNextCandidate(seq uint64, req *pendingRequest) {
	if req.timer != nil {
		req.timer.Stop()
		req.timer = nil
	}
	if req.tried >= len(req.candidates) {
		delete(n.pending, seq)
		n.requestFailed(req)
		return
	}
	target := req.candidates[req.tried]
	req.tried++
	var msg netsim.Message
	if req.kind == reqFetch {
		msg = msgDataPull{id: req.id, seq: seq}
	} else {
		msg = msgDataRequest{id: req.id, seq: seq}
	}
	ok := n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(target), msg)
	timeout := n.sys.cfg.RequestTimeout
	if !ok {
		// Unreachable right now; try the next candidate after a short
		// backoff (the topology may heal with mobility).
		timeout = time.Second
	}
	req.timer = n.sys.clock.AfterFunc(timeout, func() {
		if n.pending[seq] == req {
			n.tryNextCandidate(seq, req)
		}
	})
}

func (n *Node) requestFailed(req *pendingRequest) {
	switch req.kind {
	case reqConsume:
		n.sys.stats.failedRequests++
	case reqFetch:
		// Retry the whole fetch a few times; producers may be briefly
		// disconnected.
		retries := n.pendingFetch[req.id]
		if retries < 5 {
			n.pendingFetch[req.id] = retries + 1
			id := req.id
			n.sys.clock.AfterFunc(10*time.Second, func() {
				if _, active := n.pendingFetch[id]; active && !n.dataStore[id] {
					if it := n.findItem(id); it != nil {
						n.startFetch(it)
					}
				}
			})
		} else {
			delete(n.pendingFetch, req.id)
			n.sys.stats.failedFetches++
		}
	}
}

// findItem looks the latest version of a metadata item up.
func (n *Node) findItem(id meta.DataID) *meta.Item {
	return n.eng.LiveItem(id)
}

// FindMetadata searches the node's on-chain metadata index for items
// matching the query ("the user can search what it demands", Section
// III-B1). Expired items are excluded; migrated items appear once, in
// their latest version.
func (n *Node) FindMetadata(q meta.Query) []*meta.Item {
	now := n.sys.clock.Elapsed()
	var out []*meta.Item
	for _, it := range n.eng.LiveItems() {
		if !it.Expired(now) && q.Matches(it) {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(a, b int) bool { return lessID(out[a].ID, out[b].ID) })
	return out
}

// RequestData issues a consumer request for the item and reports whether
// candidates existed; the delivery (if any) lands in the system metrics.
// Examples use this to drive explicit fetches outside the workload.
func (n *Node) RequestData(id meta.DataID) bool {
	it := n.findItem(id)
	if it == nil {
		return false
	}
	n.startConsume(it)
	return true
}

// HasData reports whether the node currently holds the item's content
// (as producer, assigned storing node, or consumer).
func (n *Node) HasData(id meta.DataID) bool {
	return n.ownData[id] || n.dataStore[id] || n.consumed[id]
}

func (n *Node) hasData(id meta.DataID) bool {
	return n.ownData[id] || n.dataStore[id]
}

func (n *Node) handleDataRequest(from int, m msgDataRequest) {
	if n.hasData(m.id) {
		n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(from),
			msgDataResponse{id: m.id, seq: m.seq, dataSize: n.sys.cfg.DataSize})
		return
	}
	n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(from), msgDataNack{id: m.id, seq: m.seq})
}

func (n *Node) handleDataPull(from int, m msgDataPull) {
	// Same serving logic; separated for accounting clarity.
	n.handleDataRequest(from, msgDataRequest{id: m.id, seq: m.seq})
}

func (n *Node) handleDataResponse(m msgDataResponse) {
	req, ok := n.pending[m.seq]
	if !ok || req.id != m.id {
		return
	}
	if req.timer != nil {
		req.timer.Stop()
	}
	delete(n.pending, m.seq)
	now := n.sys.clock.Elapsed()
	switch req.kind {
	case reqConsume:
		n.consumed[m.id] = true
		n.sys.delivery.Add(now - req.start)
	case reqFetch:
		if _, active := n.pendingFetch[m.id]; active {
			n.dataStore[m.id] = true
			delete(n.pendingFetch, m.id)
		}
	}
}

func (n *Node) handleDataNack(m msgDataNack) {
	req, ok := n.pending[m.seq]
	if !ok || req.id != m.id {
		return
	}
	n.tryNextCandidate(m.seq, req)
}

// --- missing-block recovery (Section IV-D) ---------------------------------

// servableBlock reports whether this node may serve the body of the block
// at the given height: it must actually store it (assigned body or recent
// FIFO). Genesis is always servable.
func (n *Node) servableBlock(height uint64) bool {
	if height == 0 {
		return true
	}
	return n.blockStore[height] || n.recent.Contains(height)
}

// startBlockRecovery fetches missing heights [from, to], trying the block
// sender first, then radio neighbors (who very likely cache recent
// blocks), then the previous-block storing nodes recorded in the buffered
// block.
func (n *Node) startBlockRecovery(from, to uint64, sender int) {
	if n.sync != nil {
		return // already recovering
	}
	topo := n.sys.net.Topology()
	seen := map[int]bool{n.id: true}
	var cands []int
	add := func(c int) {
		if c >= 0 && c < n.sys.cfg.NumNodes && !seen[c] {
			seen[c] = true
			cands = append(cands, c)
		}
	}
	add(sender)
	for _, nb := range topo.Neighbors(netsim.NodeID(n.id)) {
		add(int(nb))
	}
	n.sync = &syncState{from: from, to: to, candidates: cands}
	n.sys.stats.gapRecoveries++
	n.tryNextSyncCandidate()
}

func (n *Node) tryNextSyncCandidate() {
	s := n.sync
	if s == nil {
		return
	}
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	// Refresh the range: drained blocks may have shrunk it.
	from, to, ok := n.eng.Chain().MissingRange()
	if !ok {
		n.cancelSync()
		return
	}
	s.from, s.to = from, to
	if s.tried >= len(s.candidates) {
		// Neighbors exhausted: fall back to a full chain request from the
		// first candidate (Naivechain behaviour).
		target := -1
		if len(s.candidates) > 0 {
			target = s.candidates[0]
		}
		n.cancelSync()
		if target >= 0 {
			n.requestChain(target)
		}
		return
	}
	target := s.candidates[s.tried]
	s.tried++
	n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(target), msgBlockRangeRequest{from: s.from, to: s.to})
	s.timer = n.sys.clock.AfterFunc(2*time.Second, func() {
		if n.sync == s {
			n.tryNextSyncCandidate()
		}
	})
}

func (n *Node) cancelSync() {
	if n.sync != nil {
		if n.sync.timer != nil {
			n.sync.timer.Stop()
		}
		n.sync = nil
	}
}

func (n *Node) handleBlockRangeRequest(from int, m msgBlockRangeRequest) {
	var blocks []*block.Block
	for h := m.from; h <= m.to && h <= n.eng.Height(); h++ {
		if n.servableBlock(h) {
			if b := n.eng.Chain().At(h); b != nil {
				blocks = append(blocks, b)
			}
		}
	}
	if len(blocks) > 0 {
		n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(from), msgBlockRangeResponse{blocks: blocks})
	}
}

func (n *Node) handleBlockRangeResponse(m msgBlockRangeResponse) {
	appendedAny := false
	for _, b := range m.blocks {
		appended, err := n.eng.ReceiveBlock(b)
		if err == nil && appended > 0 {
			appendedAny = true
		}
	}
	if appendedAny {
		n.scheduleMining()
	}
	if _, _, stillMissing := n.eng.Chain().MissingRange(); !stillMissing {
		n.cancelSync()
	} else if n.sync != nil {
		n.tryNextSyncCandidate()
	}
}

// --- fork resolution & full sync -------------------------------------------

func (n *Node) requestChain(target int) {
	n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(target), msgChainRequest{})
}

func (n *Node) handleChainRequest(from int) {
	n.sys.net.Unicast(netsim.NodeID(n.id), netsim.NodeID(from), msgChainResponse{blocks: n.eng.Chain().Blocks()})
}

// lastCheckpoint returns the height of the newest finalized block under
// the checkpoint rule (0 when disabled or none reached yet).
func (n *Node) lastCheckpoint() uint64 { return n.eng.LastCheckpoint() }

// handleChainResponse resolves a fork from a peer's full chain
// (Naivechain-style exchange): the blocks past the common prefix go through
// the engine as one suffix (length check, checkpoint rule, claim replay on
// fork-point state), which calls onDisconnect and then onAppend per adopted
// block, exactly as for blocks that arrived one by one.
func (n *Node) handleChainResponse(m msgChainResponse) {
	ch, k := n.eng.Chain(), 0
	for k < len(m.blocks) {
		if hdr, ok := ch.HeaderAt(uint64(k)); !ok || hdr.Hash != m.blocks[k].Hash {
			break
		}
		k++
	}
	n.adopting = true
	_, ok := n.eng.AdoptSuffix(m.blocks[k:])
	n.adopting = false
	if !ok {
		return
	}
	n.sys.stats.forkReplacements++
	n.cancelSync()
	n.scheduleMining()
}

// onDisconnect is the engine callback for blocks a fork adoption took off
// the chain: their block-body assignments are void, and so is every data
// assignment the adopted chain does not repeat.
func (n *Node) onDisconnect(gone []*block.Block) {
	for _, b := range gone {
		delete(n.blockStore, b.Index)
	}
	n.reconcileStorage()
}

// join brings a late joiner online: it syncs the chain from its nearest
// neighbor and starts mining (the "new node entering the network"
// scenario of Fig. 3).
func (n *Node) join() {
	n.joined = true
	n.sys.net.SetDown(netsim.NodeID(n.id), false)
	topo := n.sys.net.Topology()
	nbs := topo.Neighbors(netsim.NodeID(n.id))
	if len(nbs) > 0 {
		n.requestChain(int(nbs[0]))
	}
	n.scheduleMining()
}

// reconcileStorage drops stored data, and fetches still under way, that the
// adopted chain no longer assigns to this node (a fork adoption can rewrite
// assignments wholesale).
func (n *Node) reconcileStorage() {
	assigned := func(id meta.DataID) bool {
		it := n.eng.LiveItem(id)
		return it != nil && slices.Contains(it.StoringNodes, n.id)
	}
	for id := range n.dataStore {
		if !assigned(id) {
			delete(n.dataStore, id)
		}
	}
	for id := range n.pendingFetch {
		if !assigned(id) {
			delete(n.pendingFetch, id)
		}
	}
}

// lessID orders data IDs by raw bytes (deterministic iteration).
func lessID(a, b meta.DataID) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}
