package livenode

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Frames are immutable after Send (p2p.Transport): memnet hands each receiver
// the sender's own slice, a fan-out hands every peer the same one, and
// handleData and the snapshot bootstrap keep views into what they received.
// TestFramesImmutableAfterSend holds every plane to that rule.

// sendLog records every payload handed to a transport's Send, with the
// SHA-256 it had then.
type sendLog struct {
	mu     sync.Mutex
	sent   []loggedPayload
	byType [256]int
}

type loggedPayload struct {
	ft      byte
	payload []byte
	sum     [sha256.Size]byte
}

func (l *sendLog) add(ft byte, payload []byte) {
	sum := sha256.Sum256(payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent = append(l.sent, loggedPayload{ft, payload, sum})
	l.byType[ft]++
}

// recordingTransport is a p2p.Transport whose Send logs the payload first.
type recordingTransport struct {
	p2p.Transport
	log *sendLog
}

func (r recordingTransport) Send(peer string, ft byte, payload []byte) error {
	r.log.add(ft, payload)
	return r.Transport.Send(peer, ft, payload)
}

// TestFramesImmutableAfterSend runs 16 memnet nodes through every plane that
// sends frames — metadata pushes, compact block bodies, locator sync batches
// after a crash and restart, snapshot chunks from a pruning node to a
// bootstrapping late joiner, liveness probes, data requests and answers, and
// a holder's nack — on links that drop 5 % of frames.
// Every payload any node handed to Send must still hash to what it hashed to
// then: no sender reused its buffer and no receiver wrote into one.
func TestFramesImmutableAfterSend(t *testing.T) {
	const n = 16
	idents, accounts := testRoster(n)
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	mn := memnet.New(11, clk.Now)
	mn.SetRecording(false)
	mn.SetDefaults(memnet.Params{Drop: 0.05})
	log := &sendLog{}
	nodes := make([]*Node, n)
	var regs []*telemetry.Registry // every incarnation's
	addr := func(i int) string { return fmt.Sprintf("node%02d", i) }
	start := func(i int, mutate func(*Config)) {
		reg := telemetry.NewRegistry()
		regs = append(regs, reg)
		cfg := Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: 5 * time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			Clock:       clk,
			NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
				ep, err := mn.Listen(addr(i), h)
				if err != nil {
					return nil, err
				}
				return recordingTransport{ep, log}, nil
			},
			SnapshotEvery: 4,
			Telemetry:     reg,
			RepairWorkers: 2,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		node, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			if node != nil {
				node.Close()
			}
		}
	})
	others := func(i, upTo int) (out []string) {
		for j := 0; j < upTo; j++ {
			if j != i {
				out = append(out, addr(j))
			}
		}
		return out
	}
	run := func(d time.Duration) { // due messages first, then due timers
		horizon := clk.Now().Add(d)
		for {
			msgAt, msgOK := mn.NextDue()
			timerAt, timerOK := clk.NextTimer()
			if msgOK && !msgAt.After(horizon) && (!timerOK || !msgAt.After(timerAt)) {
				clk.Jump(msgAt)
				mn.DeliverNext()
			} else if timerOK && !timerAt.After(horizon) {
				clk.AdvanceTo(timerAt)
			} else {
				break
			}
		}
		clk.AdvanceTo(horizon)
	}
	publish := func(i, k int) *meta.Item {
		it, err := nodes[i].Publish([]byte(fmt.Sprintf("item %02d from node %02d", k, i)), "Road/Congestion", "frames")
		if err != nil {
			t.Fatal(err)
		}
		return it
	}

	// Node 0 prunes bodies; node 15 joins late.
	for i := 0; i < n-1; i++ {
		start(i, func(cfg *Config) {
			if i == 0 {
				cfg.PruneDepth = 8
			}
		})
	}
	for i := 0; i < n-1; i++ {
		if err := nodes[i].Connect(others(i, n-1)[i:]...); err != nil {
			t.Fatal(err)
		}
	}
	run(2 * time.Second)
	for k := 1; k <= 4; k++ {
		publish(k, k)
		run(5 * time.Second)
	}
	// Node 5 publishes and crashes before any storer fetched the content.
	publish(5, 5)
	run(time.Second)
	if err := nodes[5].Kill(); err != nil {
		t.Fatal(err)
	}
	nodes[5] = nil
	run(30 * time.Second)
	start(5, nil) // restarted with an empty store: it syncs the chain anew
	if err := nodes[5].Connect(others(5, n-1)...); err != nil {
		t.Fatal(err)
	}
	run(20 * time.Second)
	nodes[6].RequestData(publish(7, 7).ID)
	run(20 * time.Second)
	// Asked for bytes it does not hold, a node nacks with the bare ID. The
	// request is handed over directly: the nack is what must reach Send.
	absent := meta.HashData([]byte("held by nobody"))
	nodes[1].handleDataRequest(addr(6), append(absent[:], 0))
	run(time.Second)
	start(n-1, func(cfg *Config) { cfg.BootstrapSnapshot = true })
	if err := nodes[n-1].Connect(others(n-1, n)...); err != nil { // node 0 first: it serves the snapshot
		t.Fatal(err)
	}
	run(20 * time.Second)

	nacks := uint64(0) // a nack is the bare 32-byte ID in a FrameData
	for _, f := range log.sent {
		if f.ft == p2p.FrameData && len(f.payload) == len(meta.DataID{}) {
			nacks++
		}
	}
	sum := func(name string) (v uint64) {
		for _, reg := range regs {
			v += reg.Snapshot().Counter(name)
		}
		return v
	}
	for _, c := range []struct {
		what string
		got  uint64
	}{
		{"metadata pushes", uint64(log.byType[p2p.FrameMeta])},
		{"compact bodies", uint64(log.byType[p2p.FrameCompactBlock])},
		{"sync batches", uint64(log.byType[p2p.FrameSyncBatch])},
		{"snapshot chunks", uint64(log.byType[p2p.FrameSnapshot])},
		{"probes", uint64(log.byType[p2p.FrameRepairProbe])},
		{"data requests", uint64(log.byType[p2p.FrameDataRequest])},
		{"data answers", uint64(log.byType[p2p.FrameData])},
		{"data nacks", nacks},
		{"bootstrap installs", sum("livenode.bootstrap.installed")},
		{"pruned bodies", sum("livenode.prune.bodies")},
	} {
		if c.got == 0 {
			t.Errorf("no %s: the run did not exercise that plane", c.what)
		}
	}
	if h := nodes[n-1].Height(); h == 0 || nodes[5].Height() == 0 {
		t.Errorf("late joiner at height %d, restarted node at %d: both should have caught up", h, nodes[5].Height())
	}
	for i, f := range log.sent {
		if sha256.Sum256(f.payload) != f.sum {
			t.Fatalf("frame %d of %d (type %d, %d bytes) changed after Send", i, len(log.sent), f.ft, len(f.payload))
		}
	}
	t.Logf("%d frames checked", len(log.sent))
}
