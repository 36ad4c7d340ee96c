package livenode

import (
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// FuzzSyncFrames throws arbitrary bytes at the sync frame decoders and at
// a live node's frame handler. Invariants: no panic anywhere, decoders
// never allocate beyond their protocol caps (enforced structurally: every
// count is bounded before allocation, every byte take is length-checked),
// and no forged frame sequence ever moves the node's chain — adoption
// requires claims only the roster's key holders can produce.

var (
	fuzzOnce sync.Once
	fuzzNode *Node
	fuzzTip  uint64
)

// fuzzTarget lazily builds one 5-block node shared by all iterations of
// this process; each iteration clears any session the fuzz input opened so
// runs stay independent.
func fuzzTarget(f *testing.F) *Node {
	fuzzOnce.Do(func() {
		idents, accounts := testRoster(3)
		epoch := time.Unix(1700000000, 0)
		fc := sim.NewVClock(epoch)
		fn := newFakeNet()
		n, err := New(Config{
			Identity:    idents[0],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				return fn.endpoint("fuzz", h), nil
			},
			Clock:     fc,
			Telemetry: telemetry.NewRegistry(),
		})
		if err != nil {
			f.Fatal(err)
		}
		tn := &syncTestNode{Node: n, clock: fc, epoch: epoch}
		tn.mineBlocks(f, 5)
		fuzzNode = n
		fuzzTip = n.Height()
	})
	return fuzzNode
}

func FuzzSyncFrames(f *testing.F) {
	n := fuzzTarget(f)
	frames := []byte{
		p2p.FrameSyncLocator, p2p.FrameSyncHeaders, p2p.FrameSyncGetBatch,
		p2p.FrameSyncBatch, p2p.FrameBlockAnnounce, p2p.FrameGetBlock,
		p2p.FrameMetaAnnounce, p2p.FrameGetMeta,
		p2p.FrameRepairProbe, p2p.FrameRepairProbeAck, p2p.FrameCompactBlock,
		p2p.FrameDataRequest, p2p.FrameData,
	}
	frames = append(frames, deadFrameTypes...)

	// Seed corpus: one well-formed frame of each type (with real hashes, so
	// mutations explore the deep validation paths), plus shape-breaking
	// variants the codec tests reject.
	n.mu.Lock()
	loc := encodeLocator(n.eng.Chain().Locator())
	hdrs := n.buildSyncHeadersLocked(n.eng.Chain().Locator()[len(n.eng.Chain().Locator())-1:])
	batch := encodeBatch(1, n.eng.Chain().Range(1, 3))
	n.mu.Unlock()
	f.Add(uint8(0), loc)
	f.Add(uint8(1), hdrs)
	f.Add(uint8(2), encodeGetBatch(1, 64))
	f.Add(uint8(3), batch)
	f.Add(uint8(0), loc[:len(loc)-5])                       // truncated
	f.Add(uint8(2), encodeGetBatch(9, 3))                   // inverted range
	f.Add(uint8(1), putUv(putUv(nil, 1), maxSyncHeaders+1)) // oversized count
	f.Add(uint8(3), putUv(putUv(nil, ^uint64(0)), maxSyncBatch+1))
	// Near-MaxUint64 range: first+maxSyncBatch-1 must saturate, not wrap
	// past first and echo a bogus batch.
	f.Add(uint8(2), encodeGetBatch(^uint64(0)-2, ^uint64(0)))
	// Gossip frames ride the same handler: a hostile announce must at worst
	// park a pending fetch, never move the chain.
	tipBlk := n.Tip()
	f.Add(uint8(4), encodeAnnounce(tipBlk.Index+1, tipBlk.Hash))
	f.Add(uint8(5), tipBlk.Hash[:])
	f.Add(uint8(4), encodeAnnounce(^uint64(0), tipBlk.Hash))
	f.Add(uint8(5), tipBlk.Hash[:16]) // short hash
	// §15 frames ride the same handler too; FuzzMetaGossipFrames owns
	// their deep invariants, this corpus just keeps the dispatch surface
	// co-fuzzed with sync.
	f.Add(uint8(6), announceOf(meta.HashData([]byte("sync-fuzz"))))
	syncFuzzID := meta.HashData([]byte("sync-fuzz"))
	f.Add(uint8(7), announceOf(syncFuzzID))                  // get-meta
	f.Add(uint8(7), append(putUv(nil, 1), syncFuzzID[:]...)) // a full 32-byte ID under a count of one
	f.Add(uint8(7), putUv(nil, maxMetaBatch+1))
	f.Add(uint8(8), []byte{})
	f.Add(uint8(8), putU32(nil, 1))
	f.Add(uint8(9), binary.BigEndian.AppendUint16(putU32(nil, 1), 2))
	f.Add(uint8(9), []byte{0, 0})
	// Compact bodies (§13.1): a real one, one extending the tip with items
	// this node cannot resolve, a truncated one and an absurd item count.
	compact := tipBlk.EncodeCompact()
	next := block.NewBuilder(tipBlk, tipBlk.Miner, tipBlk.Timestamp+time.Minute, 60, tipBlk.B).
		AddItem(&meta.Item{ID: meta.HashData([]byte("unknown-1")), StoringNodes: []int{0, 1}}).
		AddItem(&meta.Item{ID: meta.HashData([]byte("unknown-2"))}).Seal()
	f.Add(uint8(10), compact)
	f.Add(uint8(10), next.EncodeCompact())
	f.Add(uint8(10), compact[:len(compact)-9])
	// The same bodies pushed unasked (sel ≥ 128): one already adopted, one that
	// would extend the tip — sealed by no roster key, so PoS validation must
	// stop it — and less than a hash.
	pushedCompact := uint8(128 + 10 + len(frames) - 128%len(frames))
	f.Add(pushedCompact, compact)
	f.Add(pushedCompact, next.EncodeCompact())
	f.Add(pushedCompact, compact[:17])
	hdr := wire.UvarintLen(tipBlk.Index) + wire.UvarintLen(uint64(tipBlk.Timestamp)) + 3*wire.HashSize + 8 + wire.UvarintLen(tipBlk.MinedAfter)
	f.Add(uint8(10), putUv(append([]byte(nil), compact[:hdr]...), 1<<40))
	// Data fetch (§11.1): a request and a repair request, the legacy 32- and
	// 36-byte shapes, a mark no request carries, and an answer nobody asked
	// for.
	held := meta.HashData([]byte("sync-fuzz"))
	f.Add(uint8(11), dataRequest(held, 0))
	f.Add(uint8(11), dataRequest(held, repairMark))
	f.Add(uint8(11), held[:])
	f.Add(uint8(11), putU32(append([]byte(nil), held[:]...), 1))
	f.Add(uint8(11), dataRequest(held, 2))
	f.Add(uint8(12), append(held[:], "sync-fuzz"...))
	// Retired type bytes and the first unassigned one, with what their old
	// handlers took: a block on our tip, a whole chain, a roster index.
	wholeChain := putU64(nil, 1)
	wholeChain = append(putU64(wholeChain, uint64(next.EncodedSize())), next.Encode()...)
	f.Add(uint8(13), next.Encode())
	f.Add(uint8(14), []byte{})
	f.Add(uint8(15), wholeChain)
	f.Add(uint8(16), putU32(nil, 1))
	f.Add(uint8(17), held[:])                         // the retired repair request
	f.Add(uint8(18), append(held[:], "sync-fuzz"...)) // its answer, content that hashes to the ID
	f.Add(uint8(19), next.Encode())

	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		// Decoders must fail cleanly, never panic, on any input.
		_, _ = decodeLocator(payload)
		_, _ = decodeSyncHeaders(payload)
		_, _, _ = decodeGetBatch(payload)
		_, _ = decodeBatch(payload)
		_, _, _ = decodeAnnounce(payload)
		_, _ = decodeGetBlock(payload)

		// And the full handler path must hold the no-invalid-adoption
		// invariant.
		ft := frames[int(sel)%len(frames)]
		if cb, err := block.DecodeCompact(payload); err == nil && ft == p2p.FrameCompactBlock && sel < 128 {
			// Below 128 the body answers a fetch the announce opens (the backup
			// path); from 128 up it arrives unasked, a push along the tree.
			// Either way the rebuild and park paths run.
			n.handleFrame("fuzzer", p2p.FrameBlockAnnounce, encodeAnnounce(fuzzTip+1, cb.Head.Hash))
		}
		n.handleFrame("fuzzer", ft, payload)
		if slices.Contains(deadFrameTypes, ft) {
			deadFrameStoresNothing(t, n, ft, payload)
		}
		if got := n.Height(); got != fuzzTip {
			t.Fatalf("forged sync frames moved the chain: height %d, want %d", got, fuzzTip)
		}
		if pooled := len(n.PoolIDs()); pooled != 0 {
			t.Fatalf("forged frames put %d items in the pool", pooled)
		}
		// Nothing was asked for, so nothing may be stored; and only a hello
		// binds a roster index, so no frame does.
		if len(payload) >= 32 && n.store.HasData(meta.DataID(payload[:32])) {
			t.Fatalf("unsolicited content stored under %x", payload[:32])
		}
		n.mu.Lock()
		if len(n.idxOf) != 0 {
			t.Fatalf("roster table after forged frames: %v / %v", n.addrOf, n.idxOf)
		}
		n.clearSyncLocked()
		n.clearFetchesLocked()
		n.mu.Unlock()
	})
}

// FuzzLocatorRoundTrip checks that any locator the encoder emits decodes
// back identically, for arbitrary chain shapes.
func FuzzLocatorRoundTrip(f *testing.F) {
	f.Add(uint16(0))
	f.Add(uint16(1))
	f.Add(uint16(200))
	f.Fuzz(func(t *testing.T, size uint16) {
		// Synthesize a locator of the requested shape from heights alone;
		// the codec does not care whether hashes correspond to real blocks.
		entries := make([]chain.LocatorEntry, 0, size)
		h := uint64(size)
		for i := uint16(0); i < size && len(entries) < chain.MaxLocatorLen; i++ {
			entries = append(entries, chain.LocatorEntry{Height: h})
			if h == 0 {
				break
			}
			h--
		}
		if len(entries) == 0 {
			return
		}
		enc := encodeLocator(entries)
		dec, err := decodeLocator(enc)
		if err != nil {
			t.Fatalf("round-trip failed: %v", err)
		}
		if len(dec) != len(entries) {
			t.Fatalf("round-trip length %d, want %d", len(dec), len(entries))
		}
		for i := range dec {
			if dec[i] != entries[i] {
				t.Fatalf("entry %d differs after round trip", i)
			}
		}
	})
}
