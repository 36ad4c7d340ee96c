package livenode

import (
	"repro/internal/meta"
	"repro/internal/p2p"
)

// Inv-style metadata relay (DESIGN.md §15.1). The consensus round (paper
// §III-B) assumes every node eventually holds the metadata pool; items get
// there by the same announce/fetch discipline blocks use:
//
//	producer                  sampled peer              its sampled peers
//	  FrameMetaAnnounce ─────────▶
//	  ◀──────── FrameGetMeta(ids)    (only the IDs it lacks)
//	  FrameMeta(item) ────────────▶  (one frame per fetched item)
//	                              FrameMetaAnnounce ─────────▶  …
//
// A node that admits a fetched item to its pool for the first time
// re-relays the announce to a bounded sample of peers, excluding
// whoever delivered the item, so dissemination is epidemic: O(fanout)
// 37-byte announces per node per item, and each node uploads the full
// item only a bounded number of times. Announces and fetches are
// batchable (one frame carries up to maxMetaBatch IDs).
//
// Deliberate divergence from the block path: an unanswered FrameGetMeta
// does NOT fall back to a locator round. Metadata is not load-bearing
// until a miner packs it into a block, and packed items reach every
// replica through the §10 sync path anyway — so a timed-out fetch just
// drops its pending entry (a later announce from any peer may retry) and
// pool convergence becomes eventual instead of synchronous. Only item
// IDs travel in announce/fetch frames; admission to the pool happens
// exclusively in the FrameMeta handler behind meta.Item.Verify, so no
// forged announce or fetch can inject pool state.
const (
	// maxMetaBatch bounds the IDs one FrameMetaAnnounce or FrameGetMeta
	// carries; oversized counts are rejected before allocation.
	maxMetaBatch = 64
	// metaSeenCap bounds the seen-ID LRU (IDs announced but rejected or
	// already on chain). Metadata is smaller and chattier than blocks, so
	// the ring is deeper than the block path's.
	metaSeenCap = 1024
	// maxPendingMetaFetch bounds concurrently outstanding fetched IDs;
	// past it announces are dropped (the §10 sync path still delivers
	// whatever a miner packs).
	maxPendingMetaFetch = 256
)

// --- wire codecs --------------------------------------------------------------

// encodeIDList serializes a FrameMetaAnnounce / FrameGetMeta payload: a
// 4-byte count followed by 32-byte data IDs.
func encodeIDList(ids []meta.DataID) []byte {
	out := make([]byte, 0, 4+len(ids)*len(meta.DataID{}))
	out = putU32(out, uint32(len(ids)))
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

func decodeIDList(payload []byte) ([]meta.DataID, error) {
	r := &syncReader{b: payload}
	count := r.uint32()
	if r.err == nil && (count == 0 || count > maxMetaBatch) {
		r.err = errSyncFrame
	}
	if r.err != nil {
		return nil, r.err
	}
	ids := make([]meta.DataID, 0, count)
	for i := uint32(0); i < count; i++ {
		var id meta.DataID
		copy(id[:], r.take(len(id)))
		ids = append(ids, id)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return ids, nil
}

// --- relay --------------------------------------------------------------------

// relayMeta announces a freshly pooled item by ID (gossip.go: relay).
func (n *Node) relayMeta(id meta.DataID, exclude string) {
	n.relay(p2p.FrameMetaAnnounce, encodeIDList([]meta.DataID{id}), exclude, n.tel.metaRelays)
}

// --- announce / fetch handlers ------------------------------------------------

// handleMetaAnnounce applies the dedup rules per announced ID and batches
// one FrameGetMeta back to the announcer for the genuinely unknown ones.
// A fetch the announcer never answers is simply forgotten — re-announces may
// retry, and the §10 sync path delivers whatever gets packed meanwhile.
func (n *Node) handleMetaAnnounce(from string, payload []byte) {
	ids, err := decodeIDList(payload)
	if err != nil {
		return
	}
	var want []meta.DataID
	var began []*pendingFetch
	n.mu.Lock()
	g := n.gossip
	if n.closed {
		n.mu.Unlock()
		return
	}
	for _, id := range ids {
		switch {
		case n.eng.OnChain(id):
			// Already packed: the pool will never want it again.
			g.metaSeen.Add(id)
			n.tel.metaDupSuppressed.Inc()
		case n.eng.PoolHas(id), g.metaSeen.Has(id), g.metas.pending[id] != nil:
			n.tel.metaDupSuppressed.Inc()
		case len(g.metas.pending) >= maxPendingMetaFetch:
			// Fetch table saturated: drop the announce. Unlike the block
			// path there is nothing to degrade to — packed items arrive
			// via sync, unpacked ones via a later announce.
			n.tel.metaFetchDropped.Inc()
		default:
			began = append(began, g.metas.begin(id, []string{from}, 0))
			want = append(want, id)
		}
	}
	n.mu.Unlock()
	if len(want) > 0 {
		for i, id := range want {
			g.metas.advance(id, began[i])
		}
		n.tel.metaFetchesSent.Add(len(want))
		n.send(from, p2p.FrameGetMeta, encodeIDList(want))
	}
}

// handleGetMeta serves fetched items, one FrameMeta each: pooled ones, or
// — what a compact block's receiver asks for — chained ones without their
// storing nodes (the compact body carries those). Unknown IDs are ignored.
func (n *Node) handleGetMeta(from string, payload []byte) {
	ids, err := decodeIDList(payload)
	if err != nil {
		return
	}
	var bodies [][]byte
	n.mu.Lock()
	for _, id := range ids {
		if it := n.resolveItemLocked(id); it != nil {
			bare := *it
			bare.StoringNodes = nil
			bodies = append(bodies, bare.Encode())
		}
	}
	n.mu.Unlock()
	for _, b := range bodies {
		n.tel.metaFetchesServed.Inc()
		n.send(from, p2p.FrameMeta, b)
	}
}
