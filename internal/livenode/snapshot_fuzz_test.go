package livenode

import (
	"bytes"
	"crypto/sha256"
	"sync"
	"testing"
	"time"

	"repro/internal/p2p"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// FuzzSnapshotFrames throws arbitrary bytes at the snapshot-bootstrap wire
// path. Invariants: decodeSnapshotChunk never panics, and no forged
// FrameSnapshot stream ever installs state — installation requires the
// advertised SHA-256 to match, the blob to decode, and the engine's
// semantic checks to pass, none of which a fuzzer can forge.

// nopHandler is a peer that swallows every frame (the fuzz node's requests
// and fallback locators go nowhere).
type nopHandler struct{}

func (nopHandler) HandleFrame(from string, ft byte, payload []byte) {}

var (
	snapFuzzOnce sync.Once
	snapFuzzNode *Node
)

// snapFuzzTarget lazily builds one fresh height-0 node with a bootstrap
// session pending against a silent peer, shared by all iterations in this
// process.
func snapFuzzTarget(f *testing.F) *Node {
	snapFuzzOnce.Do(func() {
		idents, accounts := testRoster(3)
		epoch := time.Unix(1700000000, 0)
		fn := newFakeNet()
		fn.endpoint("peer", nopHandler{})
		n, err := New(Config{
			Identity:    idents[0],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				return fn.endpoint("fuzz", h), nil
			},
			Clock:             sim.NewVClock(epoch),
			Telemetry:         telemetry.NewRegistry(),
			BootstrapSnapshot: true,
		})
		if err != nil {
			f.Fatal(err)
		}
		if err := n.Connect("peer"); err != nil {
			f.Fatal(err)
		}
		snapFuzzNode = n
	})
	return snapFuzzNode
}

func FuzzSnapshotFrames(f *testing.F) {
	n := snapFuzzTarget(f)

	// Seed corpus: well-formed chunks (right and wrong hashes), the
	// explicit no-snapshot answer, and shape-breaking variants, so
	// mutations explore both the codec and the reassembly state machine.
	data := bytes.Repeat([]byte{7}, 64)
	sum := sha256.Sum256(data)
	var zero [sha256.Size]byte
	f.Add(encodeSnapshotChunk(5, 64, sum, 0, 1, data))
	f.Add(encodeSnapshotChunk(5, 64, zero, 0, 1, data))
	f.Add(encodeSnapshotChunk(0, 0, zero, 0, 0, nil))
	f.Add(encodeSnapshotChunk(1, snapChunkData+9, sum, 0, 2, bytes.Repeat([]byte{2}, snapChunkData)))
	f.Add(encodeSnapshotChunk(1, snapChunkData+9, sum, 1, 2, bytes.Repeat([]byte{2}, 9)))
	f.Add(encodeSnapshotChunk(1, maxSnapTotal+1, sum, 0, 257, data))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 52))

	f.Fuzz(func(t *testing.T, payload []byte) {
		// The codec must fail cleanly, never panic, on any input.
		_, _ = decodeSnapshotChunk(payload)

		// Keep a live session so the full reassembly path runs; if the
		// session died to a poisoned stream, re-arm it. beginBootstrap
		// refuses unless the node is still fresh — so its success doubles
		// as the no-install check.
		if !n.bootstrapPending() && !n.beginBootstrap("peer") {
			t.Fatal("node no longer fresh: a fuzzed frame installed state")
		}
		n.handleFrame("peer", p2p.FrameSnapshot, payload)
		// The server side must also hold against arbitrary request bytes.
		n.handleFrame("peer", p2p.FrameGetSnapshot, payload)
		if got := n.Height(); got != 0 {
			t.Fatalf("forged snapshot frames moved the chain to height %d", got)
		}
	})
}
