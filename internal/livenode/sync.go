package livenode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Incremental batched chain sync (DESIGN.md §10). On a gap or fork a
// lagging node sends a block locator, learns the fork point and a bounded
// header range from the peer, and fetches only the missing suffix in
// bounded batches with per-batch timeouts and exponential retry backoff:
//
//	lagging node                         peer
//	  FrameSyncLocator(locator) ─────────▶
//	  ◀──────── FrameSyncHeaders(fork, tip, headers)
//	  FrameSyncGetBatch(from, to) ───────▶   ─┐ repeated per batch,
//	  ◀──────────────── FrameSyncBatch(blocks) ┘ timeout ⇒ retry/backoff
//	  … engine.AdoptSuffix …
//
// Protocol bounds. All frames are hard-bounded so a malicious peer can
// neither trigger large allocations nor smuggle an unbounded chain:
const (
	// maxSyncHeaders bounds the header range of one sync round; a node
	// lagging further simply runs multiple rounds. It is also the
	// protocol's reorg bound: a fork deeper than this cannot be adopted.
	maxSyncHeaders = 4096
	// maxSyncBatch bounds the blocks of one FrameSyncGetBatch/Batch
	// exchange, whatever the requester asked for.
	maxSyncBatch = 512

	// syncBatchBlocks is how many blocks one batch request asks for.
	syncBatchBlocks = 64
	// syncTimeout is the per-batch response deadline; each retry doubles it.
	// A gossip fetch waits that long for its announcer, a data fetch for one
	// holder, and a backup announce trails its push by a quarter of it.
	syncTimeout = 2 * time.Second
	// syncRetries is how many times an unanswered batch is re-requested
	// before the session is aborted; the next announce or locator answer
	// from any peer starts a new one.
	syncRetries = 3
	// bootstrapTimeout is the whole snapshot transfer's deadline, and how
	// long a fresh bootstrapping node holds its mining back when no peer
	// answers: one syncTimeout for each attempt a batch gets, undoubled.
	bootstrapTimeout = syncTimeout * (syncRetries + 1)
)

var errSyncFrame = errors.New("livenode: bad sync frame")

// --- wire codecs --------------------------------------------------------------

// syncHeaders is the decoded FrameSyncHeaders payload: the responder's
// view of the fork point (with the hash of OUR block there, as proof it
// intersected our locator), its tip height, and the contiguous header
// range (fork+1 …) of the suffix it offers.
type syncHeaders struct {
	Fork     uint64
	ForkHash block.Hash
	Tip      uint64
	Headers  []chain.LocatorEntry
}

// syncBatch is the decoded FrameSyncBatch payload.
type syncBatch struct {
	From   uint64
	Blocks []*block.Block
}

// appendEntries appends (height, hash) pairs: varint height, 32-byte hash.
func appendEntries(out []byte, es []chain.LocatorEntry) []byte {
	for _, e := range es {
		out = binary.AppendUvarint(out, e.Height)
		out = append(out, e.Hash[:]...)
	}
	return out
}

// minEntrySize is the least one (height, hash) pair takes.
const minEntrySize = 1 + wire.HashSize

// encodeLocator serializes a block locator: varint count, then (height,
// hash) entries tip-first.
func encodeLocator(loc []chain.LocatorEntry) []byte {
	out := make([]byte, 0, 1+len(loc)*(4+wire.HashSize))
	return appendEntries(binary.AppendUvarint(out, uint64(len(loc))), loc)
}

func decodeLocator(payload []byte) ([]chain.LocatorEntry, error) {
	r := wire.NewReader(payload)
	n := r.Count(minEntrySize)
	if r.Err() == nil && (n == 0 || n > chain.MaxLocatorLen) {
		return nil, fmt.Errorf("%w: locator of %d entries", errSyncFrame, n)
	}
	loc := make([]chain.LocatorEntry, 0, n)
	for i := 0; i < n; i++ {
		h := r.Uvarint()
		hash := r.Hash()
		if r.Err() != nil {
			break
		}
		// Locators are strictly descending tip-first; enforce the shape so
		// a forged frame cannot bias fork-point search.
		if i > 0 && h >= loc[i-1].Height {
			return nil, fmt.Errorf("%w: locator heights not descending", errSyncFrame)
		}
		loc = append(loc, chain.LocatorEntry{Height: h, Hash: hash})
	}
	return loc, r.Done()
}

// encodeSyncHeaders serializes fork point, fork hash, tip height and the
// contiguous header range.
func encodeSyncHeaders(h syncHeaders) []byte {
	out := make([]byte, 0, 3*binary.MaxVarintLen32+wire.HashSize+len(h.Headers)*(4+wire.HashSize))
	out = binary.AppendUvarint(out, h.Fork)
	out = append(out, h.ForkHash[:]...)
	out = binary.AppendUvarint(out, h.Tip)
	return appendEntries(binary.AppendUvarint(out, uint64(len(h.Headers))), h.Headers)
}

func decodeSyncHeaders(payload []byte) (syncHeaders, error) {
	var h syncHeaders
	r := wire.NewReader(payload)
	h.Fork = r.Uvarint()
	h.ForkHash = r.Hash()
	h.Tip = r.Uvarint()
	n := r.Count(minEntrySize)
	if n > maxSyncHeaders {
		return h, fmt.Errorf("%w: %d headers exceed cap %d", errSyncFrame, n, maxSyncHeaders)
	}
	h.Headers = make([]chain.LocatorEntry, 0, n)
	for i := 0; i < n; i++ {
		height := r.Uvarint()
		hash := r.Hash()
		if r.Err() != nil {
			break
		}
		// The header range must be contiguous and start right after the
		// fork point: overlapping, descending or gapped ranges are forged.
		if height != h.Fork+1+uint64(i) {
			return h, fmt.Errorf("%w: header %d at height %d, want %d", errSyncFrame, i, height, h.Fork+1+uint64(i))
		}
		h.Headers = append(h.Headers, chain.LocatorEntry{Height: height, Hash: hash})
	}
	return h, r.Done()
}

// encodeGetBatch serializes a block-range request [from, to].
func encodeGetBatch(from, to uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(nil, from), to)
}

func decodeGetBatch(payload []byte) (from, to uint64, err error) {
	r := wire.NewReader(payload)
	from = r.Uvarint()
	to = r.Uvarint()
	if err := r.Done(); err != nil {
		return 0, 0, err
	}
	if from == 0 || to < from {
		return 0, 0, fmt.Errorf("%w: batch range [%d, %d]", errSyncFrame, from, to)
	}
	return from, to, nil
}

// encodeBatch serializes one batch: starting index, count, then
// length-prefixed encoded blocks.
func encodeBatch(from uint64, blocks []*block.Block) []byte {
	out := binary.AppendUvarint(binary.AppendUvarint(nil, from), uint64(len(blocks)))
	for _, b := range blocks {
		out = wire.AppendBytes(out, b.Encode())
	}
	return out
}

func decodeBatch(payload []byte) (syncBatch, error) {
	var sb syncBatch
	r := wire.NewReader(payload)
	sb.From = r.Uvarint()
	n := r.Count(1)
	if n > maxSyncBatch {
		return sb, fmt.Errorf("%w: batch of %d blocks exceeds cap %d", errSyncFrame, n, maxSyncBatch)
	}
	sb.Blocks = make([]*block.Block, 0, n)
	for i := 0; i < n; i++ {
		raw := r.Bytes()
		if r.Err() != nil {
			break
		}
		b, err := block.Decode(raw)
		if err != nil {
			return sb, fmt.Errorf("livenode: batch block %d: %w", i, err)
		}
		if b.Index != sb.From+uint64(i) {
			return sb, fmt.Errorf("%w: batch block %d has index %d, want %d", errSyncFrame, i, b.Index, sb.From+uint64(i))
		}
		sb.Blocks = append(sb.Blocks, b)
	}
	return sb, r.Done()
}

// --- sync session -------------------------------------------------------------

// syncSession is one in-flight incremental sync: created when a peer's
// FrameSyncHeaders shows it is ahead, destroyed on completion, abort, or
// retry exhaustion. At most one session exists per node; concurrent
// triggers are absorbed by the running session.
type syncSession struct {
	gen      uint64 // guards against stale timer fires
	peer     string
	fork     uint64 // advances as catch-up batches are adopted
	peerTip  uint64 // responder's advertised tip (may exceed the header range)
	headers  []chain.LocatorEntry
	suffix   []*block.Block // accumulated suffix (true-fork case only)
	nextFrom uint64
	attempts int
	timer    sim.Timer
}

// target is the last height this session can fetch (end of the header range).
func (s *syncSession) target() uint64 { return s.headers[len(s.headers)-1].Height }

// headerAt returns the advertised header for height h.
func (s *syncSession) headerAt(h uint64) (chain.LocatorEntry, bool) {
	base := s.headers[0].Height
	if h < base || h-base >= uint64(len(s.headers)) {
		return chain.LocatorEntry{}, false
	}
	return s.headers[h-base], true
}

// sendSyncLocator opens one sync round: the same locator probe to each of
// the given peers, counted once. Peers that are ahead answer with
// FrameSyncHeaders.
func (n *Node) sendSyncLocator(peers ...string) {
	n.mu.Lock()
	if n.closed || len(peers) == 0 {
		n.mu.Unlock()
		return
	}
	n.tel.syncRounds.Inc()
	payload := encodeLocator(n.eng.Chain().Locator())
	n.mu.Unlock()
	for _, p := range peers {
		n.send(p, p2p.FrameSyncLocator, payload)
	}
}

// clearSyncLocked tears the session down (n.mu held).
func (n *Node) clearSyncLocked() {
	if n.sync == nil {
		return
	}
	if n.sync.timer != nil {
		n.sync.timer.Stop()
	}
	n.sync = nil
}

// buildSyncHeadersLocked answers a peer's locator against our chain
// (n.mu held). Returns nil when the locator shares nothing with us, or when
// we hold nothing above the fork point: the receiver ignores an empty offer.
func (n *Node) buildSyncHeadersLocked(loc []chain.LocatorEntry) []byte {
	ch := n.eng.Chain()
	fork, ok := ch.FindForkPoint(loc)
	if !ok || fork >= ch.Height() {
		return nil // disjoint chains (different genesis), or nothing to offer
	}
	to := ch.Height()
	if to > fork+maxSyncHeaders {
		to = fork + maxSyncHeaders
	}
	// The fork point may lie below a pruned replica's body window; its
	// header is always known (header spine), but the suffix bodies may
	// not be servable — then stay silent and let an unpruned peer answer.
	hdr, ok := ch.HeaderAt(fork)
	if !ok {
		return nil
	}
	blocks := ch.Range(fork+1, to)
	if len(blocks) == 0 {
		return nil
	}
	h := syncHeaders{Fork: fork, ForkHash: hdr.Hash, Tip: ch.Height()}
	for _, b := range blocks {
		h.Headers = append(h.Headers, chain.LocatorEntry{Height: b.Index, Hash: b.Hash})
	}
	return encodeSyncHeaders(h)
}

// handleSyncHeaders processes a FrameSyncHeaders answer; if it opens a
// session, the first batch request is sent.
func (n *Node) handleSyncHeaders(from string, h syncHeaders) {
	n.mu.Lock()
	if n.closed || n.sync != nil {
		n.mu.Unlock()
		return // a session is already draining; extra offers are absorbed
	}
	height := n.eng.Height()
	if h.Tip <= height || len(h.Headers) == 0 {
		n.mu.Unlock()
		return // peer has nothing we lack
	}
	ours, ok := n.eng.Chain().HeaderAt(h.Fork)
	if !ok || ours.Hash != h.ForkHash {
		n.mu.Unlock()
		return // peer disagrees about our own chain: ignore the offer
	}
	if last := h.Headers[len(h.Headers)-1].Height; last <= height {
		// The peer is ahead but its bounded header range cannot reach past
		// our tip: a fork deeper than maxSyncHeaders, the reorg bound.
		n.abortSyncLocked(fmt.Sprintf("offer from %s refused: fork %d blocks deep, header range ends at %d, not past our tip %d",
			from, height-h.Fork, last, height))
		n.mu.Unlock()
		return
	}
	n.syncGen++
	n.sync = &syncSession{
		gen:      n.syncGen,
		peer:     from,
		fork:     h.Fork,
		peerTip:  h.Tip,
		headers:  h.Headers,
		nextFrom: h.Fork + 1,
	}
	req := n.requestBatchLocked()
	n.mu.Unlock()
	n.send(from, p2p.FrameSyncGetBatch, req)
}

// requestBatchLocked builds the next batch request and arms the per-batch
// timeout with exponential backoff (n.mu held, session present).
func (n *Node) requestBatchLocked() []byte {
	s := n.sync
	from := s.nextFrom
	to := s.target()
	if to > from+syncBatchBlocks-1 {
		to = from + syncBatchBlocks - 1
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	gen := s.gen
	timeout := syncTimeout << s.attempts
	s.timer = n.clock.AfterFunc(timeout, func() { n.onSyncTimeout(gen) })
	return encodeGetBatch(from, to)
}

// onSyncTimeout fires when a batch went unanswered: retry with backoff,
// then give the peer up and abort the session.
func (n *Node) onSyncTimeout(gen uint64) {
	n.mu.Lock()
	s := n.sync
	if s == nil || s.gen != gen || n.closed {
		n.mu.Unlock()
		return
	}
	s.attempts++
	if s.attempts > syncRetries {
		n.abortSyncLocked(fmt.Sprintf("peer %s left batch %d unanswered after %d retries", s.peer, s.nextFrom, syncRetries))
		n.mu.Unlock()
		return
	}
	n.tel.syncRetries.Inc()
	req := n.requestBatchLocked()
	peer := s.peer
	n.mu.Unlock()
	n.send(peer, p2p.FrameSyncGetBatch, req)
}

// handleSyncBatch ingests one FrameSyncBatch. Catch-up batches (fork at
// our tip) are adopted immediately — verification and ledger application
// of batch k overlap the network fetch of batch k+1 — while true-fork
// suffixes accumulate until the full suffix is in hand.
func (n *Node) handleSyncBatch(from string, sb syncBatch) {
	n.mu.Lock()
	s := n.sync
	if s == nil || from != s.peer || sb.From != s.nextFrom || len(sb.Blocks) == 0 {
		n.mu.Unlock()
		return // stale, duplicate or foreign batch
	}
	if s.timer != nil {
		s.timer.Stop()
	}
	// Every block must be exactly what the peer advertised in its header
	// range; a mismatch means the peer switched chains mid-sync.
	for _, b := range sb.Blocks {
		hdr, ok := s.headerAt(b.Index)
		if !ok || hdr.Hash != b.Hash {
			n.abortSyncLocked("batch diverged from advertised headers")
			n.mu.Unlock()
			return
		}
	}
	n.tel.syncBatches.Inc()
	n.tel.syncBatchBlocks.Observe(int64(len(sb.Blocks)))
	n.tel.syncBlocksFetched.Add(len(sb.Blocks))
	batchBytes := 0
	for _, b := range sb.Blocks {
		batchBytes += b.EncodedSize()
	}
	n.tel.syncBytesFetched.Add(batchBytes)

	if len(s.suffix) == 0 && s.fork == n.eng.Height() {
		// Pure catch-up: adopt this batch right now.
		if !n.adoptSyncSuffixLocked(sb.Blocks) {
			n.mu.Unlock()
			return
		}
		s.fork = n.eng.Height()
	} else {
		s.suffix = append(s.suffix, sb.Blocks...)
	}

	last := sb.From + uint64(len(sb.Blocks)) - 1
	if last < s.target() {
		s.nextFrom = last + 1
		s.attempts = 0
		req := n.requestBatchLocked()
		peer := s.peer
		n.mu.Unlock()
		n.send(peer, p2p.FrameSyncGetBatch, req)
		return
	}

	// Header range exhausted: adopt any accumulated true-fork suffix.
	if len(s.suffix) > 0 && !n.adoptSyncSuffixLocked(s.suffix) {
		n.mu.Unlock()
		return
	}
	peerTip, tip := s.peerTip, n.eng.Tip()
	n.clearSyncLocked()
	n.mu.Unlock()
	if peerTip > tip.Index {
		// The peer's tip lies beyond this round's header window: run
		// another locator round to keep draining.
		n.sendSyncLocator(from)
		return
	}
	// Caught up by sync: every batch above was adopted, so the tip moved and the
	// tree did not bring it. Announce it as a fetched block is (§13).
	n.relayBlock(tip, from, true)
}

// abortSyncLocked drops the session, or refuses an offer that would have
// opened one; the next announce or locator answer from any peer re-triggers
// sync if the node is still behind (n.mu held).
func (n *Node) abortSyncLocked(why string) {
	n.tel.syncAborts.Inc()
	n.tel.events.RecordAt(n.clock.Now(), "sync_abort", why)
	n.clearSyncLocked()
}

// adoptSyncSuffixLocked runs a fetched suffix through the engine (n.mu held).
// Persistence, data fetches and OnBlock are onAppend's, as for a live block,
// and what a true fork undoes is onDisconnect's: the engine calls both before
// AdoptSuffix returns. On engine rejection the session is aborted (the chain
// may simply have moved on) and false is returned.
func (n *Node) adoptSyncSuffixLocked(suffix []*block.Block) bool {
	oldHeight := n.eng.Height()
	stats, ok := n.eng.AdoptSuffix(suffix)
	if !ok {
		n.abortSyncLocked(fmt.Sprintf("engine rejected suffix at fork %d", stats.ForkPoint))
		return false
	}
	n.tel.syncBlocksReplayed.Add(stats.Replayed)
	n.tel.syncVerifyParallel.Add(stats.ParallelVerified)
	if stats.FullReplay {
		n.tel.syncFullReplays.Inc()
	}
	n.tel.events.RecordAt(n.clock.Now(), "sync_adopted",
		fmt.Sprintf("fork %d, height %d -> %d (%d replayed)", stats.ForkPoint, oldHeight, n.eng.Height(), stats.Replayed))
	n.scheduleMiningLocked()
	return true
}
