package livenode

// Snapshot bootstrap and chain pruning (DESIGN.md §14). A fresh node
// joining a long-lived deployment does not replay the whole history:
// it asks its first peer for the latest finalized state snapshot
// (FrameGetSnapshot), reassembles and hash-verifies the chunked reply
// (FrameSnapshot), installs it through engine.BootstrapFromSnapshot, and
// then catches up only the live suffix over the normal §10 locator sync.
// Any failure — no snapshot offered, a timeout, a hash mismatch, a decode
// error — falls back to plain suffix sync from genesis, so bootstrap is
// strictly an optimization, never a liveness risk.
//
// On the pruning side, a node with Config.PruneDepth > 0 runs the engine
// with checkpoint finality and discards block bodies below the prune
// horizon; the engine's OnPrune callback persists the justifying snapshot
// (plus the header spine below it) and compacts the WAL segments that
// fell wholly below the horizon, keeping steady-state disk O(prune
// window) instead of O(chain length).

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/wire"
)

const (
	// snapChunkData is the data payload carried by one FrameSnapshot
	// chunk; blobs larger than this are split so no single frame
	// approaches the transport bound.
	snapChunkData = 256 << 10
	// maxSnapTotal bounds the reassembled snapshot size a client will
	// accept (and with it the chunk count, to maxSnapTotal/snapChunkData).
	maxSnapTotal = 64 << 20
)

// snapChunk is the decoded FrameSnapshot payload: which snapshot this
// chunk belongs to (height, total byte length, content hash) and where it
// sits in the stream (index, count). Count zero is the explicit "no
// snapshot available" answer and carries no data.
type snapChunk struct {
	Height uint64
	Total  uint64
	Hash   [sha256.Size]byte
	Idx    uint32
	Count  uint32
	Data   []byte
}

// encodeSnapshotChunk serializes one FrameSnapshot payload.
func encodeSnapshotChunk(height, total uint64, hash [sha256.Size]byte, idx, count uint32, data []byte) []byte {
	out := make([]byte, 0, 8+8+sha256.Size+4+4+len(data))
	out = binary.BigEndian.AppendUint64(out, height)
	out = binary.BigEndian.AppendUint64(out, total)
	out = append(out, hash[:]...)
	out = binary.BigEndian.AppendUint32(out, idx)
	out = binary.BigEndian.AppendUint32(out, count)
	return append(out, data...)
}

// decodeSnapshotChunk parses and bounds-checks a FrameSnapshot payload. A
// forged frame can neither trigger a large allocation (total is capped)
// nor desynchronize reassembly (index/count/size arithmetic is enforced
// here, before any state is touched).
func decodeSnapshotChunk(payload []byte) (snapChunk, error) {
	var c snapChunk
	r := wire.NewReader(payload)
	c.Height = r.Uint64()
	c.Total = r.Uint64()
	c.Hash = r.Hash()
	c.Idx = r.Uint32()
	c.Count = r.Uint32()
	c.Data = r.Rest()
	if err := r.Err(); err != nil {
		return c, err
	}
	if c.Count == 0 {
		if c.Total != 0 || len(c.Data) != 0 {
			return c, fmt.Errorf("%w: non-empty no-snapshot chunk", errSyncFrame)
		}
		return c, nil
	}
	if c.Total == 0 || c.Total > maxSnapTotal {
		return c, fmt.Errorf("%w: snapshot of %d bytes", errSyncFrame, c.Total)
	}
	if want := uint32((c.Total + snapChunkData - 1) / snapChunkData); c.Count != want {
		return c, fmt.Errorf("%w: %d chunks for %d bytes, want %d", errSyncFrame, c.Count, c.Total, want)
	}
	if c.Idx >= c.Count {
		return c, fmt.Errorf("%w: chunk %d of %d", errSyncFrame, c.Idx, c.Count)
	}
	wantLen := snapChunkData
	if c.Idx == c.Count-1 {
		wantLen = int(c.Total - uint64(c.Idx)*snapChunkData)
	}
	if len(c.Data) != wantLen {
		return c, fmt.Errorf("%w: chunk %d carries %d bytes, want %d", errSyncFrame, c.Idx, len(c.Data), wantLen)
	}
	return c, nil
}

// bootstrapState is one in-flight snapshot bootstrap: created by Connect
// on a fresh node, destroyed on install, explicit refusal, stream
// inconsistency or timeout. While it exists, mining and every
// chain-adoption frame are suppressed — installing a snapshot requires
// the engine to still be at height 0.
type bootstrapState struct {
	gen    uint64 // guards stale timeout fires
	peer   string
	height uint64
	total  uint64
	hash   [sha256.Size]byte
	chunks [][]byte // nil until the first chunk fixes the stream shape
	have   int
	timer  sim.Timer
}

// bootstrapPending reports whether a snapshot bootstrap is in flight.
func (n *Node) bootstrapPending() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.boot != nil
}

// beginBootstrap opens a bootstrap session against peer and sends the
// snapshot request. It reports false when bootstrap cannot apply (node
// not fresh, already bootstrapping, closed); the caller then falls back
// to plain locator sync.
func (n *Node) beginBootstrap(peer string) bool {
	n.mu.Lock()
	if n.closed || n.boot != nil || n.eng.Height() != 0 || n.eng.Chain().BodyBase() != 0 {
		n.mu.Unlock()
		return false
	}
	n.bootGen++
	// The attempt the startup mining hold was waiting for; from here the
	// in-flight session (n.boot) suppresses mining and its end rearms it.
	n.bootHold = false
	bs := &bootstrapState{gen: n.bootGen, peer: peer}
	// One generous deadline for the whole transfer; chunk loss is not
	// retried (the snapshot is an optimization — suffix sync always works).
	gen := bs.gen
	bs.timer = n.clock.AfterFunc(bootstrapTimeout, func() { n.onBootstrapTimeout(gen) })
	n.boot = bs
	n.tel.bootRequests.Inc()
	// A bootstrap in flight suppresses mining (the fresh-engine check
	// would fail after height 1); re-arm happens when the session ends.
	if n.mineTimer != nil {
		n.mineTimer.Stop()
		n.mineTimer = nil
	}
	n.mu.Unlock()
	n.send(peer, p2p.FrameGetSnapshot, nil)
	return true
}

// clearBootstrapLocked tears the session down (n.mu held).
func (n *Node) clearBootstrapLocked() {
	if n.boot == nil {
		return
	}
	if n.boot.timer != nil {
		n.boot.timer.Stop()
	}
	n.boot = nil
}

// abandonBootstrapLocked gives the snapshot path up and rearms mining
// (n.mu held); the caller sends the fallback locator after unlocking.
func (n *Node) abandonBootstrapLocked(why string) {
	n.tel.bootFallbacks.Inc()
	n.tel.events.RecordAt(n.clock.Now(), "bootstrap_fallback", why)
	n.clearBootstrapLocked()
	n.scheduleMiningLocked()
}

// onBootstrapTimeout fires when the transfer did not complete in time:
// abandon the snapshot path and probe a peer sample with a locator instead.
func (n *Node) onBootstrapTimeout(gen uint64) {
	n.mu.Lock()
	if n.boot == nil || n.boot.gen != gen || n.closed {
		n.mu.Unlock()
		return
	}
	n.abandonBootstrapLocked("snapshot transfer timed out")
	n.mu.Unlock()
	n.sendSyncLocator(n.sampleOf(n.net.Peers(), "", gossipFanout)...)
}

// handleGetSnapshot serves a peer's snapshot request: export the newest
// finalized snapshot and stream it in bounded chunks. A node with nothing
// to offer answers with an explicit zero-count chunk so the requester
// falls back immediately instead of waiting out its timeout.
func (n *Node) handleGetSnapshot(from string) {
	n.mu.Lock()
	snap, ok := n.eng.ExportSnapshot()
	n.mu.Unlock()
	var blob []byte
	if ok {
		blob = snap.Encode()
	}
	if !ok || len(blob) == 0 || len(blob) > maxSnapTotal {
		n.send(from, p2p.FrameSnapshot, encodeSnapshotChunk(0, 0, [sha256.Size]byte{}, 0, 0, nil))
		return
	}
	n.tel.bootServed.Inc()
	hash := sha256.Sum256(blob)
	total := uint64(len(blob))
	count := uint32((total + snapChunkData - 1) / snapChunkData)
	for i := uint32(0); i < count; i++ {
		lo := uint64(i) * snapChunkData
		hi := min(lo+snapChunkData, total)
		n.send(from, p2p.FrameSnapshot, encodeSnapshotChunk(snap.Height, total, hash, i, count, blob[lo:hi]))
	}
}

// handleSnapshot ingests one FrameSnapshot chunk. Once every chunk is in,
// the blob is verified against the advertised content hash, decoded, and
// installed; nothing unverified ever reaches the engine. Every failure
// path degrades to plain locator sync.
func (n *Node) handleSnapshot(from string, payload []byte) {
	c, err := decodeSnapshotChunk(payload)
	if err != nil {
		return
	}
	n.mu.Lock()
	bs := n.boot
	if bs == nil || from != bs.peer {
		n.mu.Unlock()
		return // unsolicited or foreign chunk
	}
	if c.Count == 0 {
		n.abandonBootstrapLocked("peer offers no snapshot")
		n.mu.Unlock()
		n.sendSyncLocator(from)
		return
	}
	if bs.chunks == nil {
		bs.height, bs.total, bs.hash = c.Height, c.Total, c.Hash
		bs.chunks = make([][]byte, c.Count)
	} else if c.Height != bs.height || c.Total != bs.total || c.Hash != bs.hash || int(c.Count) != len(bs.chunks) {
		n.abandonBootstrapLocked("inconsistent snapshot stream")
		n.mu.Unlock()
		n.sendSyncLocator(n.sampleOf(n.net.Peers(), "", gossipFanout)...)
		return
	}
	if bs.chunks[c.Idx] == nil {
		bs.chunks[c.Idx] = c.Data // a view into the frame, which nobody modifies
		bs.have++
		n.tel.bootChunks.Inc()
		n.tel.bootBytes.Add(len(c.Data))
	}
	if bs.have < len(bs.chunks) {
		n.mu.Unlock()
		return
	}

	blob := make([]byte, 0, bs.total)
	for _, part := range bs.chunks {
		blob = append(blob, part...)
	}
	if sha256.Sum256(blob) != bs.hash {
		n.abandonBootstrapLocked("snapshot hash mismatch")
		n.mu.Unlock()
		n.sendSyncLocator(n.sampleOf(n.net.Peers(), "", gossipFanout)...)
		return
	}
	snap, err := engine.DecodeSnapshot(blob)
	if err == nil && snap.Height != bs.height {
		err = fmt.Errorf("livenode: snapshot height %d, advertised %d", snap.Height, bs.height)
	}
	if err == nil {
		err = n.eng.BootstrapFromSnapshot(snap)
	}
	if err != nil {
		n.abandonBootstrapLocked(err.Error())
		n.mu.Unlock()
		n.sendSyncLocator(n.sampleOf(n.net.Peers(), "", gossipFanout)...)
		return
	}
	n.tel.bootInstalled.Inc()
	n.tel.events.RecordAt(n.clock.Now(), "bootstrap_installed",
		fmt.Sprintf("height %d, %d bytes", snap.Height, len(blob)))
	// Persist the installed state so a restart does not depend on the
	// peer still being around; SaveSnapshot points the manifest at it. The
	// spine below the anchor is unknown to a bootstrapped node, so none is
	// written.
	n.noteStoreErrLocked(n.store.SaveSnapshot(snap.Height, blob, nil))
	n.persistedSnap = snap.Height
	n.updateChainGauges()
	peer := bs.peer
	n.clearBootstrapLocked()
	n.scheduleMiningLocked()
	n.mu.Unlock()
	// Catch up whatever was mined above the snapshot anchor.
	n.sendSyncLocator(peer)
}

// --- pruning -------------------------------------------------------------------

// onPrune is the engine's prune callback (invoked with n.mu held, like
// every engine callback): record telemetry, make sure the snapshot that
// justifies the new horizon is on disk, then drop the WAL segments that
// fell wholly below it. During WAL replay the disk state is already
// consistent, so recovery skips the I/O.
func (n *Node) onPrune(horizon uint64, pruned int) {
	n.tel.pruneRuns.Inc()
	n.tel.pruneBodies.Add(pruned)
	n.tel.pruneHorizon.Set(int64(horizon))
	if n.replaying {
		return
	}
	n.persistSnapshotLocked()
	n.noteStoreErrLocked(n.store.CompactBlocks(horizon))
}

// persistSnapshotLocked writes the engine's newest exportable snapshot
// (and the header spine below its anchor) through the store, once per
// snapshot height (n.mu held).
func (n *Node) persistSnapshotLocked() {
	snap, ok := n.eng.ExportSnapshot()
	if !ok || snap.Height <= n.persistedSnap {
		return
	}
	var spine []chain.Header
	if snap.Height > 1 {
		spine = n.eng.Chain().Headers(1, snap.Height-1)
	}
	if err := n.store.SaveSnapshot(snap.Height, snap.Encode(), spine); err != nil {
		n.noteStoreErrLocked(err)
		return
	}
	n.persistedSnap = snap.Height
	n.tel.snapshotsPersisted.Inc()
}
