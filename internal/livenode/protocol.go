package livenode

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/meta"
	"repro/internal/p2p"
)

// --- engine callbacks --------------------------------------------------------

// noteStoreErrLocked records a persistence error: the first one sticks in
// storeErr (the API contract), every one lands in the telemetry event
// ring for postmortems (n.mu held).
func (n *Node) noteStoreErrLocked(err error) {
	if err == nil {
		return
	}
	if n.storeErr == nil {
		n.storeErr = err
	}
	n.tel.events.RecordAt(n.clock.Now(), "store_error", err.Error())
}

// onAppend layers the live node's I/O side effects on top of a block the
// engine connected (ledger, view with its assignment index, pool and item
// index are already updated): the one place that persists a block, names
// its items in metaKnown, feeds the churn detector, fetches what the block
// assigns this node and calls OnBlock. The engine calls it synchronously from
// ReceiveBlock/Mine/AppendTrusted and, once per suffix block, from
// AdoptSuffix, so n.mu is held.
func (n *Node) onAppend(ev engine.AppendEvent) {
	b := ev.Block
	if n.replaying {
		n.tel.blocksReplayed.Inc()
	} else {
		n.tel.blocksAdopted.Inc()
	}
	n.updateChainGauges()
	// Compact references resolve through metaKnown (§13.1), so every item on
	// the chain is named there too, however it came: fork twins and synced
	// suffixes are packed again, and the misses this node serves ask for them.
	for _, it := range b.Items {
		n.gossip.metaKnown.Add(it.ID.ShortID(), it.ID)
	}
	if !n.replaying {
		// Durably log the block before acting on it; replayed blocks are
		// already in the WAL. A verified block at a multiple of the snapshot
		// cadence becomes the store checkpoint. Keyed by height rather than
		// by appends since start, the cadence survives restarts.
		n.noteStoreErrLocked(n.store.AppendBlock(b))
		if b.Index%uint64(n.cfg.SnapshotEvery) == 0 {
			n.noteStoreErrLocked(n.store.Checkpoint(b.Index, b.Hash))
			if n.cfg.PruneDepth > 0 {
				n.persistSnapshotLocked()
			}
			n.pruneExpiredLocked()
		}
	}
	if !n.replaying { // no networking during WAL replay
		// The miner of a live block is liveness evidence as of its timestamp.
		if rd := n.repair; rd != nil {
			if mi, ok := n.eng.Ledger().IndexOf(b.Miner); ok {
				rd.det.Seen(mi, b.Timestamp)
			}
		}
		for _, ie := range ev.Items {
			if ie.AssignedToSelf {
				n.fetchAssignedLocked(ie.Item.ID, ie.Prev != nil)
			}
		}
	}
	if cb := n.cfg.OnBlock; cb != nil && !n.replaying {
		go cb(b)
	}
}

// onDisconnect undoes what onAppend derived from blocks a fork adoption took
// off the chain (n.mu held, like every engine callback): the WAL is cut back
// to the fork point, and the onAppend calls that follow extend it along the
// new branch. Items published here that the engine returned to the pool are
// this node's to push again (reannounceStale).
func (n *Node) onDisconnect(gone []*block.Block) {
	n.tel.forkAdoptions.Inc()
	// Every body the replica holds up to the fork point, minus genesis (it is
	// derived from the seed, never persisted). On a pruned replica the window
	// base is a real block and is kept.
	ch := n.eng.Chain()
	kept := ch.Range(max(ch.BodyBase(), 1), gone[0].Index-1)
	n.noteStoreErrLocked(n.store.ResetChain(kept))
	g, self := n.gossip, n.cfg.Identity.Address()
	for _, b := range gone {
		for _, it := range b.Items {
			if it.Producer == self && n.eng.PoolHas(it.ID) && !slices.Contains(g.own, it.ID) {
				g.own = append(g.own, it.ID)
			}
		}
	}
}

// fetchAssignedLocked fetches an item the chain has just assigned to this
// node, if it lacks the content (n.mu held). A first announcement is a
// placement fetch, which asks the producer first (only it is sure to have the
// content yet, DESIGN.md §11.1), scheduled through the clock so that
// virtual-clock runs issue the request at a deterministic point. With repair
// on, a re-announcement (repair) is left to the next probe
// tick's self-audit, which fetches it under the repair budget.
func (n *Node) fetchAssignedLocked(id meta.DataID, reannounced bool) {
	if (reannounced && n.repair != nil) || n.store.HasData(id) {
		return
	}
	n.clock.AfterFunc(0, func() { n.requestData(id, placementFetch) })
}

// replayRecovered rebuilds the chain replica from the store before
// networking starts. A persisted snapshot (pruned node or earlier
// snapshot bootstrap) is installed first — anchoring the replica without
// replaying pruned history — then the WAL blocks above the anchor run the
// normal engine state transitions. The first failure stops the replay and
// rewrites the WAL to the surviving prefix so the corruption cannot
// resurface.
func (n *Node) replayRecovered() {
	recovered := n.store.RecoveredBlocks()
	blob, spine, snapHeight, haveSnap := n.store.RecoveredSnapshot()
	if len(recovered) == 0 && !haveSnap {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.replaying = true
	defer func() { n.replaying = false }()
	if haveSnap {
		snap, err := engine.DecodeSnapshot(blob)
		if err == nil {
			err = n.eng.BootstrapFromSnapshot(snap)
		}
		if err != nil {
			// The persisted snapshot is unusable. Blocks that don't reach
			// back to genesis are unreachable without it; drop them and
			// start clean rather than replay a gapped chain.
			n.noteStoreErrLocked(err)
			if len(recovered) > 0 && recovered[0].Index != 1 {
				recovered = nil
			}
			n.noteStoreErrLocked(n.store.ResetChain(recovered))
		} else {
			n.persistedSnap = snapHeight
			if len(spine) > 0 {
				n.noteStoreErrLocked(n.eng.Chain().BackfillSpine(spine))
			}
			// Compaction keeps whole segments, so the WAL may still hold
			// blocks at or below the anchor; the snapshot already covers
			// them.
			for len(recovered) > 0 && recovered[0].Index <= snapHeight {
				recovered = recovered[1:]
			}
			n.updateChainGauges()
		}
	}
	for i, b := range recovered {
		if err := n.eng.AppendTrusted(b); err != nil {
			n.noteStoreErrLocked(err)
			n.noteStoreErrLocked(n.store.ResetChain(recovered[:i]))
			return
		}
	}
}

// pruneExpiredLocked deletes on-disk data items whose latest on-chain
// metadata valid-time has passed (n.mu held). Items the chain does not
// know about — locally produced but not yet packed, or fetched as a
// consumer — are kept.
func (n *Node) pruneExpiredLocked() {
	now := n.now()
	_, _ = n.store.PruneData(func(id meta.DataID) bool {
		it := n.eng.LiveItem(id)
		return it != nil && it.Expired(now)
	})
}

// --- mining ------------------------------------------------------------------

// scheduleMiningLocked arms the wall-clock mining timer (n.mu held).
func (n *Node) scheduleMiningLocked() {
	if n.mineTimer != nil {
		n.mineTimer.Stop()
		n.mineTimer = nil
	}
	if n.closed || n.boot != nil {
		// While a snapshot bootstrap is in flight the engine must stay at
		// height 0; the session's end rearms mining.
		return
	}
	if n.bootHold {
		if n.eng.Height() == 0 {
			// Fresh node waiting for its first snapshot-bootstrap attempt.
			return
		}
		// The chain grew some other way (peer push, locator sync) — the
		// bootstrap window is over.
		n.bootHold = false
	}
	r, ok := n.eng.NextRound()
	if !ok {
		return
	}
	delay := n.cfg.Epoch.Add(r.FireAt()).Sub(n.clock.Now())
	if delay < 0 {
		delay = 0
	}
	n.mineTimer = n.clock.AfterFunc(delay, func() { n.mine(r) })
}

// mine assembles and broadcasts the next block if the round is still open.
func (n *Node) mine(r engine.Round) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	// Every timer fire is an attempt; attempts minus blocks_won measures
	// rounds lost to faster miners or stale tips.
	n.tel.miningAttempts.Inc()
	res, err := n.eng.Mine(r)
	if err != nil {
		// Should not happen for our own block; drop the round and re-arm.
		n.scheduleMiningLocked()
		n.mu.Unlock()
		return
	}
	if res == nil {
		// The round moved on; the block that beat us already re-armed.
		n.mu.Unlock()
		return
	}
	blk := res.Block
	n.tel.blocksWon.Inc()
	n.tel.repairReannounced.Add(res.Repairs)
	n.tel.events.RecordAt(n.clock.Now(), "block_won", fmt.Sprintf("height %d, %d items", blk.Index, len(blk.Items)))
	n.scheduleMiningLocked()
	n.mu.Unlock()
	n.relayBlock(blk, "", false)
}

// --- frame handling -----------------------------------------------------------

func (n *Node) handleFrame(from string, ft byte, payload []byte) {
	// Any frame from a mapped address is passive liveness evidence.
	n.noteFrameFrom(from)
	// While a snapshot bootstrap is in flight, adopting any block would
	// void the fresh-engine precondition of the pending install; chain
	// frames are dropped and the suffix is caught up after the install
	// (or the fallback) through the usual locator round.
	switch ft {
	case p2p.FrameCompactBlock, p2p.FrameBlockAnnounce, p2p.FrameSyncHeaders, p2p.FrameSyncBatch:
		if n.bootstrapPending() {
			return
		}
	}
	// A retired or unknown type byte matches no case and is ignored.
	switch ft {
	case p2p.FrameRepairProbe:
		n.handleRepairProbe(from, payload)

	case p2p.FrameRepairProbeAck:
		n.handleRepairProbeAck(from, payload)

	case p2p.FrameMeta:
		n.handleMeta(from, payload)

	case p2p.FrameMetaAnnounce:
		n.handleMetaAnnounce(from, payload)

	case p2p.FrameGetMeta:
		n.handleGetMeta(from, payload)

	case p2p.FrameBlockAnnounce:
		n.handleBlockAnnounce(from, payload)

	case p2p.FrameGetBlock:
		n.handleGetBlock(from, payload)

	case p2p.FrameCompactBlock:
		n.handleCompactBlock(from, payload)

	case p2p.FrameGetSnapshot:
		n.handleGetSnapshot(from)

	case p2p.FrameSnapshot:
		n.handleSnapshot(from, payload)

	case p2p.FrameSyncLocator:
		loc, err := decodeLocator(payload)
		if err != nil {
			return
		}
		n.mu.Lock()
		resp := n.buildSyncHeadersLocked(loc)
		n.mu.Unlock()
		if resp != nil {
			n.send(from, p2p.FrameSyncHeaders, resp)
		}

	case p2p.FrameSyncHeaders:
		h, err := decodeSyncHeaders(payload)
		if err != nil {
			return
		}
		n.handleSyncHeaders(from, h)

	case p2p.FrameSyncGetBatch:
		first, last, err := decodeGetBatch(payload)
		if err != nil {
			return
		}
		// Saturating clamp (decodeGetBatch refuses last < first): a forged
		// first near MaxUint64 would wrap first+maxSyncBatch-1 past zero and
		// turn the bound into a no-op.
		if last-first >= maxSyncBatch {
			last = first + maxSyncBatch - 1
		}
		n.mu.Lock()
		blocks := n.eng.Chain().Range(first, last)
		n.mu.Unlock()
		if len(blocks) == 0 {
			return // nothing in range (requester will time out and retry)
		}
		n.send(from, p2p.FrameSyncBatch, encodeBatch(first, blocks))

	case p2p.FrameSyncBatch:
		sb, err := decodeBatch(payload)
		if err != nil {
			return
		}
		n.handleSyncBatch(from, sb)

	case p2p.FrameDataRequest:
		n.handleDataRequest(from, payload)

	case p2p.FrameData:
		n.handleData(from, payload)
	}
}

// receiveBlock runs one full block off the wire — rebuilt from a compact
// body, pushed or fetched — through the engine, relays it if adopted and
// starts a locator round if it did not fit. It returns the engine's verdict.
func (n *Node) receiveBlock(from string, blk *block.Block, fetched bool) error {
	n.mu.Lock()
	_, addErr := n.eng.ReceiveBlock(blk)
	if addErr == nil {
		n.scheduleMiningLocked()
	}
	n.gossip.blocks.finish(blk.Hash)
	if addErr != nil {
		// A body that failed adoption: its re-announce must not refetch it.
		n.gossip.seen.Add(blk.Hash, struct{}{})
	}
	n.mu.Unlock()
	if addErr == nil {
		// Relay-on-adopt (DESIGN.md §13): a block we had not seen before
		// goes on the way it came, never back to whoever sent us the body.
		n.relayBlock(blk, from, fetched)
	}
	if addErr != nil && !errors.Is(addErr, chain.ErrDuplicate) {
		// Gap or fork: probe the sender with a block locator and fetch
		// only the missing suffix (incremental sync, DESIGN.md §10).
		// Duplicates — common on lossy links that re-deliver — carry no
		// new information and must not trigger a sync round.
		n.sendSyncLocator(from)
	}
	return addErr
}
