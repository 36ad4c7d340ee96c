package livenode

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// FuzzMetaGossipFrames throws arbitrary bytes at the §15 metadata-relay
// and sampled-probe decoders and at a live node's frame handler.
// Invariants: no panic anywhere, no frame sequence moves the chain, and
// the pool only ever holds items whose producer signature verifies — an
// announce alone (an unfetched item) admits nothing, and a FrameMeta body,
// fetched or pushed unasked along the tree, is pooled only if it is exactly
// one item that verifies; a forged one is rejected no matter how it arrives.

var (
	metaFuzzOnce sync.Once
	metaFuzzNode *Node
	metaFuzzTip  uint64
)

// metaFuzzTarget lazily builds one node with gossip, metadata relay and
// the repair plane all enabled, shared by every iteration in this
// process; each iteration clears the relay state so runs stay
// independent. A hello has bound the fuzzer to roster index 1, so its
// probes and acks reach the digest merge.
func metaFuzzTarget(f *testing.F) *Node {
	metaFuzzOnce.Do(func() {
		idents, accounts := testRoster(3)
		epoch := time.Unix(1700000000, 0)
		fc := sim.NewVClock(epoch)
		fn := newFakeNet()
		n, err := New(Config{
			Identity:    idents[0],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Hour},
			GenesisSeed: 42,
			Epoch:       epoch,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				return fn.endpoint("metafuzz", h), nil
			},
			Clock:         fc,
			Telemetry:     telemetry.NewRegistry(),
			RepairWorkers: 1,
		})
		if err != nil {
			f.Fatal(err)
		}
		n.handleHello("fuzzer", hello(1))
		metaFuzzNode = n
		metaFuzzTip = n.Height()
	})
	return metaFuzzNode
}

// poolAllVerified reports whether every pooled item passes signature
// verification (n.mu taken inside).
func poolAllVerified(n *Node) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.eng.PoolIDs() {
		it := n.eng.PoolItem(id)
		if it == nil || it.Verify() != nil {
			return false
		}
	}
	return true
}

func FuzzMetaGossipFrames(f *testing.F) {
	n := metaFuzzTarget(f)
	idents, accounts := testRoster(3)

	// Seed corpus: well-formed frames with real IDs and signatures so
	// mutations explore the deep validation paths, plus the shape-breaking
	// variants the codec tests reject and an outright forgery.
	good := testItem(idents[1], "fuzz seed item", 0)
	forged := testItem(idents[1], "fuzz forged item", 0)
	forged.Producer = accounts[2] // signature no longer matches
	ids := []meta.DataID{good.ID, forged.ID, meta.HashData([]byte("unserved"))}

	frames := []byte{
		p2p.FrameMeta, p2p.FrameMetaAnnounce, p2p.FrameGetMeta,
		p2p.FrameRepairProbe, p2p.FrameRepairProbeAck,
	}
	frames = append(frames, deadFrameTypes...)
	// A FrameMeta with sel < 128 is announced by the fuzzer first, the way the
	// backup path would, so the body answers a pending fetch; from 128 up it
	// arrives unasked, a push. Both reach decode and AddMetadata.
	pushed := uint8(128 + len(frames) - 128%len(frames)) // ≡ 0: FrameMeta
	pushedForgery := testItem(idents[2], "fuzz forged push", 0)
	pushedForgery.DataSize++

	f.Add(uint8(0), good.Encode())
	f.Add(uint8(0), forged.Encode())
	f.Add(uint8(0), good.Encode()[:8]) // truncated body
	f.Add(pushed, testItem(idents[2], "fuzz item nobody asked for", 0).Encode())
	f.Add(pushed, pushedForgery.Encode())
	f.Add(pushed, good.Encode()) // a second copy once seed 0 ran: dropped before decode
	f.Add(pushed, good.Encode()[:40])
	f.Add(uint8(1), announceOf(ids...))
	f.Add(uint8(1), announceOf(ids[0]))
	f.Add(uint8(1), putUv(nil, 0))                       // zero count
	f.Add(uint8(1), putUv(nil, maxMetaBatch+1))          // oversized count
	f.Add(uint8(1), announceOf(ids...)[:10])             // truncated list
	f.Add(uint8(1), append(announceOf(ids[0]), 0))       // length not a multiple of 8
	f.Add(uint8(1), append(putUv(nil, 1), ids[0][:]...)) // a full 32-byte ID: four IDs' worth
	f.Add(uint8(2), announceOf(ids...))                  // get-meta shares the codec
	f.Add(uint8(2), append(putUv(nil, 4), ids[0][:]...)) // a full ID read as four short ones
	f.Add(uint8(2), putUv(nil, maxMetaBatch+1))
	f.Add(uint8(3), []byte{})        // probe: the hello names the sender
	f.Add(uint8(3), putU32(nil, 1))  // the legacy probe, a roster index
	f.Add(uint8(3), []byte{1, 2})    // not empty
	ack := putUv(putUv(nil, 2), 5)   // idx 2 (gap 2 from the start), 500ms ago
	ack = putUv(putUv(ack, 0), 1000) // idx 0 (the receiver itself, wrapping), stale age
	f.Add(uint8(4), ack)
	f.Add(uint8(4), ack[:3])                                          // ends inside an entry
	f.Add(uint8(4), []byte{})                                         // empty digest
	f.Add(uint8(4), []byte{3, 1})                                     // gap past the roster
	f.Add(uint8(4), []byte{0, 1, 1, 1, 1, 1})                         // indices 0, 2, 1: a second cycle
	f.Add(uint8(4), []byte{0x80, 0x00, 1})                            // padded varint
	f.Add(uint8(4), putUv([]byte{1}, 0x10000))                        // age past 0xFFFF units
	f.Add(uint8(4), bytes.Repeat([]byte{0, 1}, probeDigestMax+1))     // past the digest bound
	f.Add(uint8(4), binary.BigEndian.AppendUint16(putU32(nil, 2), 5)) // the fixed-width layout
	// Retired type bytes and the first unassigned one: the heartbeat's
	// roster index (repair is on here) and an item body.
	f.Add(uint8(5), good.Encode())
	f.Add(uint8(8), putU32(nil, 1))
	f.Add(uint8(9), good.ID[:])                        // the retired repair request
	f.Add(uint8(10), append(ids[2][:], "unserved"...)) // its answer, content that hashes to the ID
	f.Add(uint8(11), putU32(nil, 1))

	f.Fuzz(func(t *testing.T, sel uint8, payload []byte) {
		// The shared codec must fail cleanly on any input and accept only
		// its own canonical encoding.
		if ids, err := decodeIDList(payload); err == nil && !bytes.Equal(encodeShortIDs(ids), payload) {
			t.Fatalf("decodeIDList accepted %x as %d IDs that encode differently", payload, len(ids))
		}

		ft := frames[int(sel)%len(frames)]
		pooled := len(n.PoolIDs())
		if short, ok := meta.EncodedShortID(payload); ok && ft == p2p.FrameMeta && sel < 128 {
			n.handleFrame("fuzzer", p2p.FrameMetaAnnounce, encodeShortIDs([]meta.ShortID{short}))
		}
		n.handleFrame("fuzzer", ft, payload)
		if grew := len(n.PoolIDs()) - pooled; grew != 0 {
			it, err := meta.Decode(payload)
			if ft != p2p.FrameMeta || grew != 1 || err != nil || it.Verify() != nil || !poolHas(n, it.ID) {
				t.Fatalf("pool grew by %d on frame type %d: only one verified FrameMeta item may enter", grew, ft)
			}
		}
		if slices.Contains(deadFrameTypes, ft) {
			deadFrameStoresNothing(t, n, ft, payload)
		}
		if got := n.Height(); got != metaFuzzTip {
			t.Fatalf("forged meta/probe frames moved the chain: height %d, want %d", got, metaFuzzTip)
		}
		if !poolAllVerified(n) {
			t.Fatal("pool holds an item that does not verify")
		}
		n.mu.Lock()
		n.clearFetchesLocked()
		n.mu.Unlock()
	})
}
