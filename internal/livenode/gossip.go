package livenode

import (
	"math/rand"
	"sort"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/p2p"
)

// Inv-style gossip block relay (DESIGN.md §13). Instead of pushing every
// won block in full to every peer — O(n) full-block sends per block, the
// full-mesh scaling wall — a node that adopts a block it has not seen
// before announces only (height, header hash) to a bounded random sample
// of peers. A peer that lacks the hash fetches the body from the
// announcer; on adopting it, it relays the announce onward (excluding
// whoever sent it the block), so dissemination is epidemic: O(fanout) 40-
// byte announces per node and O(fanout · log n) hops to saturation,
// while each node uploads the full body only a bounded number of times.
//
//	miner                    sampled peer              its sampled peers
//	  FrameBlockAnnounce ───────▶
//	  ◀─────── FrameGetBlock(hash)   (only if the hash is unknown)
//	  FrameBlock(body) ─────────▶
//	                              FrameBlockAnnounce ───────▶  …
//
// Duplicate announces are suppressed against the chain's own hash index
// (adopted blocks), the pending-fetch table (a fetch already in flight)
// and a small LRU of hashes seen but not adopted (stale forks, timed-out
// fetches). A fetch the announcer never answers falls back to the §10
// sync locator path after cfg.SyncTimeout, preserving the ordering
// announce → fetch → locator → whole-chain exchange.
const (
	// defaultGossipFanout is how many peers an announce is relayed to when
	// Config.GossipFanout is 0. Six gives >99.9% epidemic saturation on
	// overlays far past 1000 nodes.
	defaultGossipFanout = 6
	// gossipSeenCap bounds the seen-hash LRU. It only has to cover hashes
	// the chain index cannot answer for (stale forks, pending gaps), so a
	// few hundred entries outlast any realistic announce storm.
	gossipSeenCap = 512
	// maxPendingFetch bounds concurrently outstanding FrameGetBlock
	// requests; past it an announce degrades to the locator path, which
	// batches instead of fetching block-by-block.
	maxPendingFetch = 64
)

// gossipState is the node's announce/fetch bookkeeping; nil when gossip
// is disabled (Config.GossipFanout < 0) and the legacy full-mesh push is
// in effect. The same sampler and seen/pending discipline also runs the
// metadata relay (DESIGN.md §15) when Config.MetaFanout selects it. All
// fields are guarded by Node.mu.
type gossipState struct {
	fanout  int
	rng     *rand.Rand           // node-local, deterministically seeded peer sampling
	seen    *seenLRU[block.Hash] // announced hashes not (or not yet) on our chain
	pending map[block.Hash]*pendingFetch
	gen     uint64 // fetch generation, guards stale timers

	// Metadata relay (DESIGN.md §15); metaFanout < 0 keeps the legacy
	// full-mesh FrameMeta push even while block gossip runs.
	metaFanout  int
	metaSeen    *seenLRU[meta.DataID] // announced IDs not (or not yet) pooled
	metaPending map[meta.DataID]*pendingMetaFetch
	metaGen     uint64
}

// pendingFetch tracks one outstanding FrameGetBlock.
type pendingFetch struct {
	from   string
	height uint64
	gen    uint64
	timer  Timer
}

func newGossipState(fanout, metaFanout int, seed int64) *gossipState {
	return &gossipState{
		fanout:      fanout,
		rng:         rand.New(rand.NewSource(seed)),
		seen:        newSeenLRU[block.Hash](gossipSeenCap),
		pending:     make(map[block.Hash]*pendingFetch),
		metaFanout:  metaFanout,
		metaSeen:    newSeenLRU[meta.DataID](metaSeenCap),
		metaPending: make(map[meta.DataID]*pendingMetaFetch),
	}
}

// seenLRU is a fixed-capacity set of 32-byte identifiers (block hashes,
// data IDs) with FIFO eviction: a map for O(1) membership plus a ring of
// insertion order. Re-adding a present key is a no-op (announce storms
// must not churn the ring).
type seenLRU[K comparable] struct {
	m    map[K]struct{}
	ring []K
	next int
	full bool
}

func newSeenLRU[K comparable](capacity int) *seenLRU[K] {
	return &seenLRU[K]{
		m:    make(map[K]struct{}, capacity),
		ring: make([]K, capacity),
	}
}

func (l *seenLRU[K]) Has(k K) bool {
	_, ok := l.m[k]
	return ok
}

func (l *seenLRU[K]) Add(k K) {
	if l.Has(k) {
		return
	}
	if l.full {
		delete(l.m, l.ring[l.next])
	}
	l.ring[l.next] = k
	l.m[k] = struct{}{}
	l.next++
	if l.next == len(l.ring) {
		l.next, l.full = 0, true
	}
}

// --- wire codecs --------------------------------------------------------------

// encodeAnnounce serializes a FrameBlockAnnounce payload: 8-byte height,
// 32-byte header hash.
func encodeAnnounce(height uint64, h block.Hash) []byte {
	out := make([]byte, 0, 8+len(h))
	out = putU64(out, height)
	return append(out, h[:]...)
}

func decodeAnnounce(payload []byte) (height uint64, h block.Hash, err error) {
	r := &syncReader{b: payload}
	height = r.uint64()
	h = r.hash()
	return height, h, r.done()
}

// decodeGetBlock parses a FrameGetBlock payload: a bare 32-byte hash.
func decodeGetBlock(payload []byte) (h block.Hash, err error) {
	r := &syncReader{b: payload}
	h = r.hash()
	return h, r.done()
}

// --- relay --------------------------------------------------------------------

// relayBlock announces a freshly adopted block to a bounded random sample
// of peers (never the one it came from). Callers must NOT hold n.mu; the
// sends are synchronous.
func (n *Node) relayBlock(blk *block.Block, exclude string) {
	targets := n.sampleGossipPeers(exclude)
	if len(targets) == 0 {
		return
	}
	ann := encodeAnnounce(blk.Index, blk.Hash)
	for _, p := range targets {
		n.send(p, p2p.FrameBlockAnnounce, ann)
	}
	n.tel.gossipRelays.Inc()
}

// sampleGossipPeers draws up to fanout distinct peers from the sorted
// peer list, excluding `exclude`. Sorting before sampling makes the draw
// a pure function of the peer set and the node's seeded RNG, which is
// what keeps deterministic chaos runs bit-identical.
func (n *Node) sampleGossipPeers(exclude string) []string {
	peers := n.net.Peers()
	cand := peers[:0]
	for _, p := range peers {
		if p != exclude {
			cand = append(cand, p)
		}
	}

	n.mu.Lock()
	defer n.mu.Unlock()
	g := n.gossip
	if g == nil || n.closed {
		return nil
	}
	return samplePeersLocked(g.rng, cand, g.fanout)
}

// samplePeersLocked draws up to k distinct entries from cand via a
// partial Fisher-Yates shuffle over the sorted candidates, so the draw is
// a pure function of the candidate set and the caller's seeded RNG (n.mu
// held — the RNGs live behind it). memnet's Peers() arrives sorted; the
// TCP transport's comes in map order and is sorted here. Both gossip
// planes and the sampled liveness prober share this.
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
	n.mu.Lock()
	g := n.gossip
	if g == nil || n.closed {
		n.mu.Unlock()
		return
	}
	switch {
	case n.eng.Chain().ByHash(hash) != nil:
		// Already adopted: a re-announce carries no information and must
		// trigger neither a fetch nor a sync round (the announce-path twin
		// of the chain.ErrDuplicate guard on pushed blocks).
		n.tel.gossipDupSuppressed.Inc()
		n.mu.Unlock()
		return
	case g.seen.Has(hash):
		n.tel.gossipDupSuppressed.Inc()
		n.mu.Unlock()
		return
	case g.pending[hash] != nil:
		n.tel.gossipDupSuppressed.Inc()
		n.mu.Unlock()
		return
	case height <= n.eng.Height():
		// A block at or below our tip cannot extend the longest chain; a
		// genuinely longer fork will produce higher announces (or heal via
		// locators). Remember the hash so repeats stay cheap.
		g.seen.Add(hash)
		n.tel.gossipStaleSuppressed.Inc()
		n.mu.Unlock()
		return
	case len(g.pending) >= maxPendingFetch:
		// Fetch table saturated — we are far behind, and block-by-block
		// fetching is the wrong tool. Degrade to batched sync.
		n.mu.Unlock()
		n.sendSyncLocator(from)
		return
	}
	g.gen++
	pf := &pendingFetch{from: from, height: height, gen: g.gen}
	gen := g.gen
	pf.timer = n.clock.AfterFunc(n.cfg.SyncTimeout, func() { n.onGossipFetchTimeout(hash, gen) })
	g.pending[hash] = pf
	n.tel.gossipFetchesSent.Inc()
	n.mu.Unlock()
	n.send(from, p2p.FrameGetBlock, hash[:])
}

// handleGetBlock serves a fetched body; an unknown hash is ignored (the
// requester's timeout falls back to the locator path).
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
	n.send(from, p2p.FrameBlock, blk.Encode())
}

// onGossipFetchTimeout fires when an announcer never answered a
// FrameGetBlock: drop the pending entry and probe the announcer with a
// block locator instead (which in turn can fall back to the whole-chain
// exchange), so one silent peer cannot strand a block.
func (n *Node) onGossipFetchTimeout(hash block.Hash, gen uint64) {
	n.mu.Lock()
	g := n.gossip
	if g == nil || n.closed {
		n.mu.Unlock()
		return
	}
	pf := g.pending[hash]
	if pf == nil || pf.gen != gen {
		n.mu.Unlock()
		return // answered, or superseded
	}
	delete(g.pending, hash)
	// Remember the hash: a re-announce must not restart a fetch the
	// locator path is already covering.
	g.seen.Add(hash)
	from := pf.from
	n.tel.gossipFetchTimeouts.Inc()
	n.mu.Unlock()
	n.sendSyncLocator(from)
}

// noteGossipBlockLocked records the arrival of a full block against the
// gossip state (n.mu held): a pending fetch for its hash is complete, and
// a body that failed adoption joins the seen set so its re-announce does
// not refetch. Returns whether the adopted block should be relayed.
func (n *Node) noteGossipBlockLocked(blk *block.Block, adopted bool) (relay bool) {
	g := n.gossip
	if g == nil {
		return false
	}
	if pf := g.pending[blk.Hash]; pf != nil {
		pf.timer.Stop()
		delete(g.pending, blk.Hash)
	}
	if !adopted {
		g.seen.Add(blk.Hash)
		return false
	}
	return true
}

// clearGossipLocked stops all pending fetch timers and resets the fetch
// tables of both gossip planes (n.mu held). Close/Kill and test
// teardowns call it.
func (n *Node) clearGossipLocked() {
	g := n.gossip
	if g == nil {
		return
	}
	for h, pf := range g.pending {
		pf.timer.Stop()
		delete(g.pending, h)
	}
	g.gen++
	for id, pm := range g.metaPending {
		pm.timer.Stop()
		delete(g.metaPending, id)
	}
	g.metaGen++
}
