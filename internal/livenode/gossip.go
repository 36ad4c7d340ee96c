package livenode

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"sort"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/wire"
)

// Tree relay (DESIGN.md §13). A block this node mines or adopts — and, one
// plane over, an item it publishes or admits (§15.1) — travels as the body
// itself, pushed unasked along a spanning tree that every node derives alone
// from the sorted peer list (treeRanks), so each node receives it once and
// uploads it at most gossipFanout+1 times:
//
//	miner                        tree neighbour            its tree neighbours
//	  FrameCompactBlock ─────────▶  (header + item IDs, §13.1)
//	                                adopted: FrameCompactBlock ───────▶  …
//
// Announce → fetch is the backup: syncTimeout/4 after adopting a pushed body
// a node announces (height, hash) to lazyPeers sampled peers, and one that
// still lacks the hash — a drop, a partition, peer views that disagree —
// answers FrameGetBlock and gets the compact body. A fetched (or synced) body
// is evidence that the tree failed here: it is announced at once to a full
// gossipFanout sample, and the relay degrades to the epidemic it replaced.
//
// Duplicates are suppressed against the chain's own hash index (adopted
// blocks), the pending fetches (fetcher.go: one candidate, the sender) and a
// small LRU of hashes seen but not adopted (stale forks, timed-out fetches).
// A fetch the announcer never answers falls back to the §10 sync locator path
// after syncTimeout: the ladder is push → announce → fetch → locator.
const (
	// gossipFanout is the tree's arity and a fallback announce's peer
	// sample. Six gives a tree three levels deep
	// at 256 nodes and >99.9% epidemic saturation on overlays far past 1000.
	gossipFanout = 6
	// lazyPeers is how many sampled peers hear a pushed ID's backup announce.
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
	metaKnown *seenLRU[meta.ShortID, meta.DataID] // items published, admitted or shown: short → full ID
	metas     *fetcher[meta.ShortID]              // items being fetched from their announcer
	lazy      []meta.ShortID                      // pushed on the tree; their backup announce leaves when the armed timer fires
	lazyNext  []meta.ShortID                      // pushed since it was armed: they wait for the next
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
	g.metas.exhausted = func(meta.ShortID, *pendingFetch) func() {
		// No locator fallback (metagossip.go): a later announce may retry.
		n.tel.metaFetchTimeouts.Inc()
		return nil
	}
	return g
}

// seenLRU is a fixed-capacity table keyed by identifiers (block hashes, short
// data IDs) with FIFO eviction: a map for O(1) lookup plus a ring of
// insertion order. Re-adding a present key is a no-op (announce storms
// must not churn the ring, and the first value under a key stays).
type seenLRU[K comparable, V any] struct {
	m    map[K]V
	ring []K
	next int
	full bool
}

func newSeenLRU[K comparable, V any](capacity int) *seenLRU[K, V] {
	return &seenLRU[K, V]{
		m:    make(map[K]V, capacity),
		ring: make([]K, capacity),
	}
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
	if l.full {
		delete(l.m, l.ring[l.next])
	}
	l.ring[l.next] = k
	l.m[k] = v
	l.next++
	if l.next == len(l.ring) {
		l.next, l.full = 0, true
	}
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

// push sends a body to this node's tree neighbours for rot, ranked over the
// sorted peers ∪ self, except the one it came from. Callers must NOT hold n.mu.
func (n *Node) push(ft byte, body []byte, rot uint64, exclude string) {
	peers := n.net.Peers()
	if !sort.StringsAreSorted(peers) { // memnet's arrive sorted, TCP's in map order
		sort.Strings(peers)
	}
	self := sort.SearchStrings(peers, n.net.Addr())
	var buf [gossipFanout + 1]int
	for _, r := range treeRanks(buf[:0], len(peers)+1, self, rot, gossipFanout) {
		if r > self {
			r-- // peers lacks self: ranks past it sit one lower
		}
		if peers[r] != exclude && n.send(peers[r], ft, body) == nil {
			n.tel.relayPushed.Inc()
		}
	}
}

// announce sends an ID frame to a sample of up to k peers, never the one the
// body came from. Callers must NOT hold n.mu.
func (n *Node) announce(ft byte, ids []byte, exclude string, k int) {
	peers := n.net.Peers()
	cand := peers[:0]
	for _, p := range peers {
		if p != exclude {
			cand = append(cand, p)
		}
	}
	for _, p := range n.sampleOf(cand, k) {
		n.send(p, ft, ids)
	}
}

// relayBlock passes on a block this node mined or adopted: along the tree with
// a backup announce behind it — on a timer of its own, where items share a queue:
// blocks come a round apart and FrameBlockAnnounce names one — or, when it had to
// be fetched, as an announce at once. Then the pull side runs (reannounceStale).
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

// sampleOf draws up to k of cand on the node's seeded RNG, reordering cand in
// place; a closed node draws nothing. Announces and locator probes go to such a
// sample: a pure function of the peer set and the RNG, so chaos runs repeat.
func (n *Node) sampleOf(cand []string, k int) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	return samplePeersLocked(n.gossip.rng, cand, k)
}

// samplePeersLocked draws up to k distinct entries from cand via a
// partial Fisher-Yates shuffle over the sorted candidates, so the draw is
// a pure function of the candidate set and the caller's seeded RNG (n.mu
// held — the RNGs live behind it). memnet's Peers() arrives sorted, TCP's
// in map order. Both gossip planes and the liveness prober share this.
func samplePeersLocked(rng *rand.Rand, cand []string, k int) []string {
	if !sort.StringsAreSorted(cand) {
		sort.Strings(cand)
	}
	if k > len(cand) {
		k = len(cand)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(cand)-i)
		cand[i], cand[j] = cand[j], cand[i]
	}
	return cand[:k]
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
		pf = g.blocks.begin(hash, []string{from}, 0)
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

// handleCompactBlock rebuilds a block, fetched or pushed, from items this node
// already holds (DESIGN.md §13.1); a body nobody asked for opens its own pending
// entry. IDs it cannot resolve are requested from the sender, by full ID, while
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
		pf = g.blocks.begin(hash, nil, 0)
	}
	if err != nil || pf == nil {
		n.mu.Unlock()
		return
	}
	if len(pf.cands) == 0 || pf.cands[0] != from {
		// Nobody asked this sender: it pushed, and stands in for any announcer being asked.
		pf.cands, pf.pushed = []string{from}, true
	}
	blk, missing := cb.Rebuild(n.resolveItemLocked)
	pf.compact, pf.missing = cb, make(map[meta.DataID]struct{}, len(missing))
	fetch := len(missing) <= maxPendingMetaFetch
	began := make([]*pendingFetch, len(missing)) // nil: a fetch of that short ID was pending already, or the table is full
	for i, id := range missing {
		pf.missing[id] = struct{}{}
		if s := id.ShortID(); fetch && g.metas.pending[s] == nil && len(g.metas.pending) < maxPendingMetaFetch {
			began[i] = g.metas.begin(s, []string{from}, 0)
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
			g.metas.advance(id.ShortID(), began[i])
		}
	}
	for len(missing) > 0 {
		k := min(len(missing), maxMetaBatch)
		n.send(from, p2p.FrameGetMeta, encodeIDList(missing[:k]))
		missing = missing[k:]
	}
}

// noteCompactItemLocked strikes an arrived item off every parked body
// waiting for it and rebuilds those that now wait for nothing, for the
// caller to pass to finishCompact (n.mu held). They come in fetch order:
// two bodies completed by one item must adopt deterministically.
func (n *Node) noteCompactItemLocked(id meta.DataID) (ready []*pendingFetch, blocks []*block.Block) {
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
		blk, _ := pf.compact.Rebuild(n.resolveItemLocked)
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
func (n *Node) blockFetchExhausted(hash block.Hash, pf *pendingFetch) func() {
	// Remember the hash: a re-announce must not restart a fetch the
	// locator path is already covering.
	n.gossip.seen.Add(hash, struct{}{})
	n.tel.gossipFetchTimeouts.Inc()
	if pf.compact != nil {
		n.tel.compactFallbacks.Inc()
	}
	return func() { n.sendSyncLocator(pf.cands[0]) }
}
