package livenode

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/wire"
)

// Tree relay (DESIGN.md §13). A block this node mines or adopts — and, one
// plane over, an item it publishes or admits (§15.1) — travels as the body
// itself, pushed unasked along a spanning tree that every node derives alone
// from the sorted peer list (treeRanks), so each node receives it once and
// uploads it at most gossipFanout+1 times (more only to go around a failed send):
//
//	miner                        tree neighbour            its tree neighbours
//	  FrameCompactBlock ─────────▶  (header + short item IDs, §13.1)
//	                                adopted: FrameCompactBlock ───────▶  …
//
// Announce → fetch is the block plane's backup (an item's is the next block,
// metagossip.go): syncTimeout/4 after adopting a pushed body a node announces
// (height, hash) to lazyPeers sampled peers; one that lacks it — a drop, a
// losing fork, views that disagree — fetches the compact body. A fetched (or
// synced) body is evidence that the tree failed here: it is announced at once
// to a full gossipFanout sample, and the relay degrades to the epidemic it replaced.
//
// Duplicates are suppressed against the chain's own hash index (adopted
// blocks), the pending fetches (fetcher.go: one candidate, the sender) and a
// small LRU of hashes seen but not adopted (stale forks, timed-out fetches).
// A fetch the announcer never answers falls back to the §10 sync locator path
// after syncTimeout: the ladder is push → announce → fetch → locator.
const (
	// gossipFanout is the tree's arity and a fallback announce's peer sample. Six gives
	// a tree three levels deep at 256 nodes and >99.9% epidemic saturation past 1000.
	gossipFanout = 6
	// lazyPeers is how many sampled peers hear a pushed block's backup announce.
	lazyPeers = 2
	// gossipSeenCap bounds the seen-hash LRU. It only has to cover hashes
	// the chain index cannot answer for (stale forks, pending gaps), so a
	// few hundred entries outlast any realistic announce storm.
	gossipSeenCap = 512
	// maxPendingFetch bounds concurrently outstanding FrameGetBlock
	// requests; past it an announce degrades to the locator path, which
	// batches instead of fetching block-by-block.
	maxPendingFetch = 64
)

// gossipState is the node's announce/fetch bookkeeping. The same sampler
// and seen/pending discipline also runs the metadata relay (DESIGN.md
// §15.1). All fields are guarded by Node.mu.
type gossipState struct {
	rng    *rand.Rand                     // node-local, deterministically seeded peer sampling
	seen   *seenLRU[block.Hash, struct{}] // announced hashes not (or not yet) on our chain
	blocks *fetcher[block.Hash]           // bodies being fetched from their announcer

	// Metadata relay (DESIGN.md §15.1).
	metaKnown *seenLRU[meta.ShortID, meta.DataID] // items published, admitted, shown or appended: short → full ID
	metas     *fetcher[meta.ShortID]              // items being fetched from their announcer
	own       []meta.DataID                       // published here and not seen packed yet, oldest first (reannounceStale)
}

func (n *Node) newGossipState(seed int64) *gossipState {
	g := &gossipState{
		rng:       rand.New(rand.NewSource(seed)),
		seen:      newSeenLRU[block.Hash, struct{}](gossipSeenCap),
		blocks:    newFetcher[block.Hash](&n.mu, n.clock),
		metaKnown: newSeenLRU[meta.ShortID, meta.DataID](metaSeenCap),
		metas:     newFetcher[meta.ShortID](&n.mu, n.clock),
	}
	g.blocks.ask = func(h block.Hash, e *pendingFetch, to string) bool {
		if !e.pushed { // a pushed body is here already: only the wait for its missing items starts
			n.send(to, p2p.FrameGetBlock, h[:])
		}
		return true // an announcer the request did not reach is given up by the timer
	}
	g.blocks.exhausted = n.blockFetchExhausted
	// handleMetaAnnounce and handleCompactBlock send one batched request for
	// every ID they begin, so advancing an entry only starts its wait.
	g.metas.ask = func(meta.ShortID, *pendingFetch, string) bool { return true }
	g.metas.exhausted = func(meta.ShortID, *pendingFetch) (time.Duration, func()) {
		// No locator fallback (metagossip.go): a later announce may retry.
		n.tel.metaFetchTimeouts.Inc()
		return 0, nil
	}
	return g
}

// seenLRU is a fixed-capacity table keyed by identifiers (block hashes, short
// data IDs) with FIFO eviction: a map for O(1) lookup plus a ring of
// insertion order. Re-adding a present key is a no-op (announce storms
// must not churn the ring, and the first value under a key stays). Both
// grow as keys arrive: the ring by append up to capacity, after which
// each new key overwrites the oldest. A node that never hears a key
// holds none of the capacity.
type seenLRU[K comparable, V any] struct {
	m        map[K]V
	ring     []K
	next     int // once the ring is full, the slot of the oldest key
	capacity int
}

func newSeenLRU[K comparable, V any](capacity int) *seenLRU[K, V] {
	return &seenLRU[K, V]{m: make(map[K]V), capacity: capacity}
}

func (l *seenLRU[K, V]) Get(k K) (V, bool) {
	v, ok := l.m[k]
	return v, ok
}

func (l *seenLRU[K, V]) Has(k K) bool {
	_, ok := l.m[k]
	return ok
}

func (l *seenLRU[K, V]) Add(k K, v V) {
	if l.Has(k) {
		return
	}
	if len(l.ring) < l.capacity {
		l.ring = append(l.ring, k)
	} else {
		delete(l.m, l.ring[l.next])
		l.ring[l.next] = k
		if l.next++; l.next == l.capacity {
			l.next = 0
		}
	}
	l.m[k] = v
}

// --- wire codecs --------------------------------------------------------------

// encodeAnnounce serializes a FrameBlockAnnounce payload: varint height,
// 32-byte header hash.
func encodeAnnounce(height uint64, h block.Hash) []byte {
	out := make([]byte, 0, binary.MaxVarintLen32+len(h))
	out = binary.AppendUvarint(out, height)
	return append(out, h[:]...)
}

func decodeAnnounce(payload []byte) (height uint64, h block.Hash, err error) {
	r := wire.NewReader(payload)
	height = r.Uvarint()
	h = r.Hash()
	return height, h, r.Done()
}

// decodeGetBlock parses a FrameGetBlock payload: a bare 32-byte hash.
func decodeGetBlock(payload []byte) (h block.Hash, err error) {
	r := wire.NewReader(payload)
	h = r.Hash()
	return h, r.Done()
}

// --- relay --------------------------------------------------------------------

// treeRanks appends to out the ranks of rank r's neighbours — parent, then
// children — in the spanning tree over n ranks where rank (rot+p) mod n sits at
// position p of a k-ary heap. rot comes from the ID relayed, so interior roles
// move from item to item; nodes that agree on the sorted peer list agree on the tree.
func treeRanks(out []int, n, r int, rot uint64, k int) []int {
	shift := int(rot % uint64(n))
	p := (r - shift + n) % n
	if p > 0 {
		out = append(out, ((p-1)/k+shift)%n)
	}
	for c := p*k + 1; c <= p*k+k && c < n; c++ {
		out = append(out, (c+shift)%n)
	}
	return out
}

// treeToward is the rank of rank a's neighbour on the tree path to rank b ≠ a:
// the child above b (heap positions grow downward), else a's parent.
func treeToward(n, a, b int, rot uint64, k int) int {
	shift := int(rot % uint64(n))
	pa, pb := (a-shift+n)%n, (b-shift+n)%n
	for pb > pa && (pb-1)/k != pa {
		pb = (pb - 1) / k
	}
	if pb < pa {
		pb = (pa - 1) / k
	}
	return (pb + shift) % n
}

// push sends a body to this node's tree neighbours for rot, ranked over the
// peers ∪ self (sorted by the transport), except the one it came from. A failed
// send goes on at once to that neighbour's other tree neighbours, and so
// outward, unless the sender went around it already. Callers must NOT hold n.mu.
func (n *Node) push(ft byte, body []byte, rot uint64, exclude string) {
	peers := n.net.Peers()
	size, self := len(peers)+1, sort.SearchStrings(peers, n.net.Addr())
	toward := -1 // the neighbour toward the sender
	if s := sort.SearchStrings(peers, exclude); s < len(peers) && peers[s] == exclude {
		if s >= self {
			s++ // peers lacks self: ranks past it sit one lower
		}
		toward = treeToward(size, self, s, rot, gossipFanout)
	}
	queue := treeRanks(make([]int, 0, gossipFanout+1), size, self, rot, gossipFanout)
	for i := 0; i < len(queue); i++ {
		r, p := queue[i], queue[i]
		if p > self {
			p--
		}
		if peers[p] == exclude {
			continue
		}
		if n.send(peers[p], ft, body) == nil {
			n.tel.relayPushed.Inc()
		} else if r != toward { // only a neighbour of self can be toward
			n.tel.relayRouted.Inc()
			back := treeToward(size, r, self, rot, gossipFanout) // the rank r was reached through
			for _, q := range treeRanks(nil, size, r, rot, gossipFanout) {
				if q != back {
					queue = append(queue, q)
				}
			}
		}
	}
}

// announce sends an ID frame to a sample of up to k peers, never the one the
// body came from. Callers must NOT hold n.mu.
func (n *Node) announce(ft byte, ids []byte, exclude string, k int) {
	for _, p := range n.sampleOf(n.net.Peers(), exclude, k) {
		n.send(p, ft, ids)
	}
}

// relayBlock passes on a block this node mined or adopted: along the tree with
// a backup announce behind it, or, when it had to be fetched, as an announce at
// once. Then the metadata plane's pull side runs (reannounceStale).
func (n *Node) relayBlock(blk *block.Block, from string, fetched bool) {
	n.tel.gossipRelays.Inc()
	ann := encodeAnnounce(blk.Index, blk.Hash)
	if fetched {
		n.tel.relayFallbacks.Inc()
		n.announce(p2p.FrameBlockAnnounce, ann, from, gossipFanout)
	} else {
		n.push(p2p.FrameCompactBlock, blk.EncodeCompact(), binary.BigEndian.Uint64(blk.Hash[:]), from)
		n.clock.AfterFunc(syncTimeout/4, func() {
			n.tel.relayLazyIDs.Inc()
			n.announce(p2p.FrameBlockAnnounce, ann, "", lazyPeers)
		})
	}
	n.reannounceStale(blk)
}

// sampleOf draws up to k of peers ∖ {exclude} on the node's seeded RNG; a
// closed node draws nothing. Announces and locator probes go to such a sample:
// a pure function of the peer set and the RNG, so chaos runs repeat.
func (n *Node) sampleOf(peers []string, exclude string, k int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	return samplePeersLocked(n.gossip.rng, peers, exclude, k)
}

// samplePeersLocked draws up to k distinct entries of peers ∖ {exclude} into a
// new slice; peers is sorted and duplicate-free (a p2p.Transport.Peers
// snapshot). It runs a partial Fisher-Yates shuffle of the candidates
// sparsely: peers is only read, and only the at most k positions the shuffle
// displaced are kept, so a draw costs O(k log n). It makes the rng.Intn calls
// an in-place shuffle of the sorted candidates would and returns the same
// peers in the same order, so the draw is a pure function of the peer set and
// the caller's seeded RNG (n.mu held — the RNGs live behind it). Both gossip
// planes and the liveness prober share this.
func samplePeersLocked(rng *rand.Rand, peers []string, exclude string, k int) []string {
	skip := sort.SearchStrings(peers, exclude) // candidate c is peers[c], or peers[c+1] from skip on
	m := len(peers)
	if skip < m && peers[skip] == exclude {
		m--
	} else {
		skip = m
	}
	k = min(k, m)
	if k <= 0 {
		return nil
	}
	// moved maps a position the shuffle swapped a candidate into to the
	// candidate it now holds; every other position still holds its own.
	moved := make(map[int]int, k)
	at := func(p int) int {
		if c, ok := moved[p]; ok {
			return c
		}
		return p
	}
	out := make([]string, k)
	for i := range out {
		j := i + rng.Intn(m-i)
		cj := at(j)
		moved[j] = at(i) // position i is never read again
		if cj >= skip {
			cj++
		}
		out[i] = peers[cj]
	}
	return out
}

// --- announce / fetch handlers ------------------------------------------------

// handleBlockAnnounce applies the dedup rules and, for a genuinely new
// hash, fetches the body from the announcer with a timeout that falls
// back to the §10 locator path.
func (n *Node) handleBlockAnnounce(from string, payload []byte) {
	height, hash, err := decodeAnnounce(payload)
	if err != nil {
		return
	}
	var pf *pendingFetch
	saturated := false
	n.mu.Lock()
	g := n.gossip
	switch {
	case n.closed:
	case n.eng.Chain().ByHash(hash) != nil, g.seen.Has(hash), g.blocks.pending[hash] != nil:
		// Already adopted — a re-announce carries no information and must
		// trigger neither a fetch nor a sync round (the announce-path twin
		// of the chain.ErrDuplicate guard in receiveBlock) — or seen, or
		// being fetched.
		n.tel.gossipDupSuppressed.Inc()
	case height <= n.eng.Height():
		// A block at or below our tip cannot extend the longest chain; a
		// genuinely longer fork will produce higher announces (or heal via
		// locators). Remember the hash so repeats stay cheap.
		g.seen.Add(hash, struct{}{})
		n.tel.gossipStaleSuppressed.Inc()
	case len(g.blocks.pending) >= maxPendingFetch:
		// Fetch table saturated — we are far behind, and block-by-block
		// fetching is the wrong tool. Degrade to batched sync.
		saturated = true
	default:
		pf = g.blocks.begin(hash, []string{from})
		n.tel.gossipFetchesSent.Inc()
	}
	n.mu.Unlock()
	if saturated {
		n.sendSyncLocator(from)
	} else if pf != nil {
		g.blocks.advance(hash, pf)
	}
}

// handleGetBlock serves a fetched body in compact form; an unknown hash is
// ignored (the requester's timeout falls back to the locator path).
func (n *Node) handleGetBlock(from string, payload []byte) {
	hash, err := decodeGetBlock(payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	blk := n.eng.Chain().ByHash(hash)
	n.mu.Unlock()
	if blk == nil {
		return
	}
	n.tel.gossipFetchesServed.Inc()
	n.send(from, p2p.FrameCompactBlock, blk.EncodeCompact())
}

// resolveItemLocked finds an item by ID in the pool, else on chain — fork
// twins, re-announcements, every item of a block already adopted (n.mu held).
func (n *Node) resolveItemLocked(id meta.DataID) *meta.Item {
	if it := n.eng.PoolItem(id); it != nil {
		return it
	}
	return n.eng.LiveItem(id)
}

// resolveShortLocked resolves a compact reference: metaKnown names the full
// ID, resolveItemLocked the item (n.mu held).
func (n *Node) resolveShortLocked(s meta.ShortID) *meta.Item {
	if id, ok := n.gossip.metaKnown.Get(s); ok {
		return n.resolveItemLocked(id)
	}
	return nil
}

// handleCompactBlock rebuilds a block, fetched or pushed, from items this node
// already holds (DESIGN.md §13.1); a body nobody asked for opens its own pending
// entry. Short IDs it cannot resolve are requested from the sender while
// the body parks in its pending fetch, whose wait on the sender keeps running;
// more of them than a fetch table holds go straight to the locator. Each is also a
// pending metadata fetch: an announce of it is a duplicate, handleMeta takes its answer.
func (n *Node) handleCompactBlock(from string, payload []byte) {
	hash, ok := block.EncodedHash(payload)
	if !ok {
		return
	}
	n.mu.Lock()
	g := n.gossip
	pf := g.blocks.pending[hash]
	if n.closed || pf != nil && pf.compact != nil || pf == nil && (n.eng.Chain().ByHash(hash) != nil || g.seen.Has(hash)) {
		// A second copy, or a hash adopted, refused or given up on: dropped before decode.
		n.tel.relayDupBodies.Inc()
		n.mu.Unlock()
		return
	}
	cb, err := block.DecodeCompact(payload)
	switch {
	case err != nil, pf != nil: // nothing to open: undecodable, or a fetch of it is pending
	case cb.Head.Index <= n.eng.Height():
		g.seen.Add(hash, struct{}{}) // as an announce at or below our tip
		n.tel.gossipStaleSuppressed.Inc()
	case len(g.blocks.pending) >= maxPendingFetch:
		defer n.sendSyncLocator(from) // table full, as for an announce: drop the body, sync in batches once unlocked
	default:
		pf = g.blocks.begin(hash, nil)
	}
	if err != nil || pf == nil {
		n.mu.Unlock()
		return
	}
	if len(pf.cands) == 0 || pf.cands[0] != from {
		// Nobody asked this sender: it pushed, and stands in for any announcer being asked.
		pf.cands, pf.pushed = []string{from}, true
	}
	blk, missing := cb.Rebuild(n.resolveShortLocked)
	pf.compact, pf.missing = cb, make(map[meta.ShortID]struct{}, len(missing))
	fetch := len(missing) <= maxPendingMetaFetch
	began := make([]*pendingFetch, len(missing)) // nil: a fetch of that short ID was pending already, or the table is full
	for i, id := range missing {
		pf.missing[id] = struct{}{}
		if fetch && g.metas.pending[id] == nil && len(g.metas.pending) < maxPendingMetaFetch {
			began[i] = g.metas.begin(id, []string{from})
		}
	}
	n.tel.compactItemsMissing.Add(len(missing))
	fresh := pf.next == 0 // a push nobody announced: its wait on the sender has yet to start
	n.mu.Unlock()
	if blk == nil && fresh {
		g.blocks.advance(hash, pf) // asks nobody (ask, above)
	}
	if blk != nil || !fetch {
		n.finishCompact(pf, blk)
		return
	}
	for i, id := range missing {
		if began[i] != nil {
			g.metas.advance(id, began[i])
		}
	}
	for len(missing) > 0 {
		k := min(len(missing), maxMetaBatch)
		n.send(from, p2p.FrameGetMeta, encodeShortIDs(missing[:k]))
		missing = missing[k:]
	}
}

// noteCompactItemLocked strikes an arrived item off every parked body
// waiting for it and rebuilds those that now wait for nothing, for the
// caller to pass to finishCompact (n.mu held). They come in fetch order:
// two bodies completed by one item must adopt deterministically.
func (n *Node) noteCompactItemLocked(id meta.ShortID) (ready []*pendingFetch, blocks []*block.Block) {
	for _, pf := range n.gossip.blocks.pending {
		if _, waiting := pf.missing[id]; !waiting {
			continue
		}
		if delete(pf.missing, id); len(pf.missing) == 0 {
			ready = append(ready, pf)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].seq < ready[j].seq })
	for _, pf := range ready {
		// An item that arrived but was not admitted (forged, expired) is
		// still unresolved: a nil block, and finishCompact gives the fetch up.
		blk, _ := pf.compact.Rebuild(n.resolveShortLocked)
		blocks = append(blocks, blk)
	}
	return ready, blocks
}

// finishCompact ends a compact fetch. A rebuilt block goes through
// receiveBlock like any block off the wire: the hash is recomputed over the
// full item bytes there, so a wrong pool item is a locator round, never an
// adoption. A body that cannot be rebuilt (blk nil) means its sender failed,
// and it was the only candidate.
func (n *Node) finishCompact(pf *pendingFetch, blk *block.Block) {
	if blk == nil {
		n.gossip.blocks.advance(pf.compact.Head.Hash, pf)
		return
	}
	n.tel.compactRebuilt.Inc()
	if errors.Is(n.receiveBlock(pf.cands[0], blk, !pf.pushed), block.ErrBadHash) {
		n.tel.compactFallbacks.Inc()
	}
}

// blockFetchExhausted is the block plane's verdict on a fetch whose announcer
// never answered, or whose compact answer could not be completed (n.mu held):
// probe the announcer with a block locator instead, so one silent peer cannot
// strand a block.
func (n *Node) blockFetchExhausted(hash block.Hash, pf *pendingFetch) (time.Duration, func()) {
	// Remember the hash: a re-announce must not restart a fetch the
	// locator path is already covering.
	n.gossip.seen.Add(hash, struct{}{})
	n.tel.gossipFetchTimeouts.Inc()
	if pf.compact != nil {
		n.tel.compactFallbacks.Inc()
	}
	return 0, func() { n.sendSyncLocator(pf.cands[0]) }
}
