package livenode

import (
	"encoding/binary"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/wire"
)

// Metadata relay (DESIGN.md §15.1). The consensus round (paper §III-B)
// assumes every node eventually holds the metadata pool; items get there the
// way blocks travel (gossip.go): the signed item itself is pushed along the
// spanning tree its short ID (meta.ShortID, the DataID's prefix) selects, and
// every node that admits it passes it on to its other tree neighbours, so an
// item crosses the network n−1 times and nobody asks for it:
//
//	producer                  tree neighbour             its tree neighbours
//	  FrameMeta(item) ───────────▶ verified, pooled
//	                               FrameMeta(item) ───────────▶  …
//
// The next block is the backup, Plumtree's IHAVE without a frame of its own:
// it names its items by short ID, and a node the push missed asks its sender
// for those it lacks (FrameGetMeta, §13.1). A fetched item is evidence that
// the tree failed its receiver, so it is announced at once (FrameMetaAnnounce)
// to a gossipFanout sample: the relay degrades to an epidemic, and no further.
// The ladder is push → the next block's miss path → reannounceStale.
//
// A short ID only says "you may lack this". Both ends resolve it through one
// bounded table, gossipState.metaKnown (short → full ID of what this node
// published, admitted, was shown or appended in a block): a receiver to skip
// what it has — a pushed body as much as an announced ID — and to rebuild a
// compact block (§13.1), the announcer or relayer to find what it is asked
// for. An item sharing another's prefix, by accident or forged, loses its push
// and its announce, and a block that packs it is rebuilt with the item that
// held the prefix first: the hash check refuses that block and a locator round
// ships it in full. FrameMeta still carries the whole item, pooled only by
// engine.AddMetadata behind meta.Item.Verify — no push, announce or fetch can
// inject pool state.
//
// Deliberate divergence from the block path: an unanswered FrameGetMeta does
// NOT fall back to a locator round — a packed item reaches every replica with
// its block anyway — so a timed-out fetch just drops its pending entry.
const (
	// maxMetaBatch bounds the IDs one FrameMetaAnnounce or FrameGetMeta
	// carries; oversized counts are rejected before allocation.
	maxMetaBatch = 64
	// metaSeenCap bounds metaKnown. An entry is needed from an item's push until
	// the block packing it is rebuilt here, a pool's worth of items later
	// (DESIGN.md §15.1); one evicted earlier costs a refetch or a compact miss.
	metaSeenCap = 1024
	// maxPendingMetaFetch bounds the IDs being fetched at once; past it an announced
	// ID is dropped (the block that packs it still delivers it).
	maxPendingMetaFetch = 256
)

// --- wire codecs --------------------------------------------------------------

// encodeShortIDs serializes a FrameMetaAnnounce or FrameGetMeta payload: the
// varint count, then 8-byte short IDs.
func encodeShortIDs(ids []meta.ShortID) []byte {
	out := make([]byte, 0, 1+len(ids)*len(meta.ShortID{}))
	out = binary.AppendUvarint(out, uint64(len(ids)))
	for _, id := range ids {
		out = append(out, id[:]...)
	}
	return out
}

// decodeIDList parses a short-ID list. The payload must be exactly as long as
// its count says.
func decodeIDList(payload []byte) ([]meta.ShortID, error) {
	r := wire.NewReader(payload)
	count := r.Uvarint()
	if r.Err() != nil || count == 0 || count > maxMetaBatch || r.Len() != int(count)*len(meta.ShortID{}) {
		return nil, errSyncFrame
	}
	ids := make([]meta.ShortID, count)
	for i := range ids {
		ids[i] = meta.ShortID(r.Take(len(meta.ShortID{})))
	}
	return ids, nil
}

// --- relay, announce and fetch handlers -----------------------------------------

// relayMeta passes on an item this node published or admitted (body: its wire
// form): along the tree, or, if it had to be fetched, as an announce at once.
func (n *Node) relayMeta(id meta.DataID, body []byte, from string, fetched bool) {
	n.tel.metaRelays.Inc()
	short := id.ShortID()
	if fetched {
		n.tel.relayFallbacks.Inc()
		n.announce(p2p.FrameMetaAnnounce, encodeShortIDs([]meta.ShortID{short}), from, gossipFanout)
		return
	}
	n.push(p2p.FrameMeta, body, binary.BigEndian.Uint64(short[:]), from)
}

// reannounceStale is the relay's pull side, run on adopting blk: items this
// node published that sit in its pool unpacked, signed more than 2·T0 before
// blk — two rounds without a miner that pools them — are announced again to
// one sampled peer, oldest first, at most maxMetaBatch. A stranded item spreads
// within a few blocks instead of waiting for its producer to win: whoever
// fetches it passes it on at full fan-out.
func (n *Node) reannounceStale(blk *block.Block) {
	var stale []meta.ShortID
	n.mu.Lock()
	g, now := n.gossip, n.now()
	unpacked := g.own[:0]
	for _, id := range g.own {
		it := n.eng.PoolItem(id)
		if it == nil || it.Expired(now) || n.eng.OnChain(id) {
			continue // packed or gone: nothing left to push
		}
		unpacked = append(unpacked, id)
		if it.Produced+2*n.cfg.PoS.T0 < blk.Timestamp && len(stale) < maxMetaBatch {
			stale = append(stale, id.ShortID())
		}
	}
	g.own = unpacked
	n.mu.Unlock()
	if len(stale) > 0 {
		n.tel.relayStale.Add(len(stale))
		n.announce(p2p.FrameMetaAnnounce, encodeShortIDs(stale), "", 1)
	}
}

// handleMetaAnnounce applies the dedup rules per announced short ID and
// batches one FrameGetMeta back to the announcer for the unknown ones.
func (n *Node) handleMetaAnnounce(from string, payload []byte) {
	ids, err := decodeIDList(payload)
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
			began = append(began, g.metas.begin(id, []string{from}))
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

// handleGetMeta serves fetched items, one FrameMeta each: pooled ones, or —
// what a compact block's receiver asks for — chained ones without their
// storing nodes (the compact body carries those). A short ID asked for is one
// this node announced or appended in a block, so metaKnown names it. Unknown
// IDs are ignored.
func (n *Node) handleGetMeta(from string, payload []byte) {
	short, err := decodeIDList(payload)
	if err != nil {
		return
	}
	var bodies [][]byte
	n.mu.Lock()
	for _, s := range short {
		id, ok := n.gossip.metaKnown.Get(s)
		if !ok {
			n.tel.metaShortUnresolved.Inc()
		} else if it := n.resolveItemLocked(id); it != nil {
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

// handleMeta admits an item, pushed or fetched, through engine.AddMetadata.
// A pushed body whose short ID metaKnown already names — held, shown before
// or forged — is dropped before it costs a decode and a signature check.
func (n *Node) handleMeta(from string, payload []byte) {
	short, ok := meta.EncodedShortID(payload)
	if !ok {
		return
	}
	n.mu.Lock()
	g := n.gossip
	pf := g.metas.pending[short]
	if pf == nil && g.metaKnown.Has(short) {
		n.tel.relayDupBodies.Inc()
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
	// Admitted, forged or a duplicate: no push or announce of it is looked at again.
	g.metaKnown.Add(short, it.ID)
	if !added && n.resolveItemLocked(it.ID) != nil {
		n.tel.metaRefetchedHeld.Inc()
	}
	ready, blocks := n.noteCompactItemLocked(short)
	n.mu.Unlock()
	if added {
		// On first admission: fetched if the peer asked answered, pushed otherwise.
		n.relayMeta(it.ID, payload, from, pf != nil && pf.cands[0] == from)
	}
	for i, pf := range ready {
		n.finishCompact(pf, blocks[i])
	}
}
