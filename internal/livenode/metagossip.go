package livenode

import (
	"encoding/binary"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/wire"
)

// Inv-style metadata relay (DESIGN.md §15.1). The consensus round (paper
// §III-B) assumes every node eventually holds the metadata pool; items get
// there by the same announce/fetch discipline blocks use, spoken in 8-byte
// short IDs (meta.ShortID, the DataID's prefix):
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
// 17-byte announces per node per item, and each node uploads the full
// item only a bounded number of times.
//
// A short ID only says "you may lack this". Both ends resolve it through one
// bounded table, gossipState.metaKnown (short → full ID of what this node
// published, admitted or was shown): an announce's receiver to skip what it
// has, the announcer to find what it is asked for. An item sharing another's
// prefix, by accident or forged, loses its announce and nothing else: it
// travels with the block that packs it (compact blocks and their miss path
// name items by full ID), and FrameMeta still carries the whole item, taken
// only for a short ID being fetched and pooled only by engine.AddMetadata
// behind meta.Item.Verify — no announce or fetch can inject pool state.
//
// Deliberate divergence from the block path: an unanswered FrameGetMeta
// does NOT fall back to a locator round. Metadata is not load-bearing
// until a miner packs it into a block, and packed items reach every
// replica through the §10 sync path anyway — so a timed-out fetch just
// drops its pending entry (a later announce from any peer may retry) and
// pool convergence becomes eventual instead of synchronous.
const (
	// maxMetaBatch bounds the IDs one FrameMetaAnnounce or FrameGetMeta
	// carries; oversized counts are rejected before allocation.
	maxMetaBatch = 64
	// metaSeenCap bounds metaKnown. An entry is needed from an item's first
	// announce to its last (milliseconds); one evicted earlier costs a refetch
	// that AddMetadata refuses (livenode.metagossip.refetched_held).
	metaSeenCap = 1024
	// maxPendingMetaFetch bounds concurrently outstanding announced IDs;
	// past it announces are dropped (the §10 sync path still delivers
	// whatever a miner packs).
	maxPendingMetaFetch = 256
	// shortMark, the low bit of an ID list's varint count word, says the IDs
	// that follow are 8-byte short IDs; without it they are 32-byte data IDs,
	// which only FrameGetMeta takes (the compact-miss path, §13.1).
	shortMark = 1
)

// --- wire codecs --------------------------------------------------------------

// encodeIDList serializes a full-ID FrameGetMeta payload: the varint word
// count<<1, then 32-byte data IDs.
func encodeIDList(ids []meta.DataID) []byte {
	out := make([]byte, 0, 1+len(ids)*len(meta.DataID{}))
	out = binary.AppendUvarint(out, uint64(len(ids))<<1)
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

// encodeShortIDs serializes a FrameMetaAnnounce or short-ID FrameGetMeta
// payload: the varint word count<<1|shortMark, then 8-byte short IDs.
func encodeShortIDs(ids []meta.ShortID) []byte {
	out := make([]byte, 0, 1+len(ids)*len(meta.ShortID{}))
	out = binary.AppendUvarint(out, uint64(len(ids))<<1|shortMark)
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

// decodeIDList parses either list; exactly one result is non-nil. The payload
// must be exactly as long as its count word says.
func decodeIDList(payload []byte) (full []meta.DataID, short []meta.ShortID, err error) {
	r := wire.NewReader(payload)
	w := r.Uvarint()
	count, width := w>>1, len(meta.DataID{})
	if w&shortMark != 0 {
		width = len(meta.ShortID{})
	}
	if r.Err() != nil || count == 0 || count > maxMetaBatch || r.Len() != int(count)*width {
		return nil, nil, errSyncFrame
	}
	if w&shortMark != 0 {
		short = make([]meta.ShortID, count)
		for i := range short {
			short[i] = meta.ShortID(r.Take(width))
		}
	} else {
		full = make([]meta.DataID, count)
		for i := range full {
			full[i] = meta.DataID(r.Take(width))
		}
	}
	return full, short, nil
}

// --- relay, announce and fetch handlers -----------------------------------------

// relayMeta announces a freshly pooled item by short ID (gossip.go: relay).
func (n *Node) relayMeta(id meta.DataID, exclude string) {
	n.relay(p2p.FrameMetaAnnounce, encodeShortIDs([]meta.ShortID{id.ShortID()}), exclude, n.tel.metaRelays)
}

// handleMetaAnnounce applies the dedup rules per announced short ID and
// batches one FrameGetMeta back to the announcer for the unknown ones.
func (n *Node) handleMetaAnnounce(from string, payload []byte) {
	_, ids, err := decodeIDList(payload)
	if err != nil {
		return
	}
	var want []meta.ShortID
	var began []*pendingFetch
	n.mu.Lock()
	g := n.gossip
	if n.closed {
		n.mu.Unlock()
		return
	}
	for _, id := range ids {
		switch {
		case g.metaKnown.Has(id), g.metas.pending[id] != nil:
			n.tel.metaDupSuppressed.Inc()
		case len(g.metas.pending) >= maxPendingMetaFetch:
			// Fetch table saturated: nothing to degrade to, the announce is dropped.
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
		n.send(from, p2p.FrameGetMeta, encodeShortIDs(want))
	}
}

// handleGetMeta serves fetched items, one FrameMeta each: pooled ones, or
// — what a compact block's receiver asks for, by full ID — chained ones
// without their storing nodes (the compact body carries those). A short ID
// is one this node announced, so metaKnown names it. Unknown IDs are ignored.
func (n *Node) handleGetMeta(from string, payload []byte) {
	ids, short, err := decodeIDList(payload)
	if err != nil {
		return
	}
	var bodies [][]byte
	n.mu.Lock()
	for _, s := range short {
		if id, ok := n.gossip.metaKnown.Get(s); ok {
			ids = append(ids, id)
		} else {
			n.tel.metaShortUnresolved.Inc()
		}
	}
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

// handleMeta admits a fetched item. One nobody asked for — no pending fetch
// under its short ID, registered by handleMetaAnnounce or by the compact-miss
// path — is dropped before it costs a decode and a signature check.
func (n *Node) handleMeta(from string, payload []byte) {
	short, ok := meta.EncodedShortID(payload)
	n.mu.Lock()
	g := n.gossip
	if !ok || g.metas.pending[short] == nil {
		n.mu.Unlock()
		return
	}
	it, err := meta.Decode(payload)
	if err != nil {
		n.mu.Unlock()
		return
	}
	added := n.eng.AddMetadata(it) // verifies the signature, dedups vs pool+chain
	g.metas.finish(short)
	// Admitted, forged or a duplicate: its re-announce must not refetch it.
	g.metaKnown.Add(short, it.ID)
	if !added && n.resolveItemLocked(it.ID) != nil {
		n.tel.metaRefetchedHeld.Inc()
	}
	ready, blocks := n.noteCompactItemLocked(it.ID)
	n.mu.Unlock()
	if added {
		// Relay on first admission, never back to whoever sent us the body.
		n.relayMeta(it.ID, from)
	}
	for i, pf := range ready {
		n.finishCompact(pf, blocks[i])
	}
}
