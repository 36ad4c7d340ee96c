package livenode

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// --- deterministic test fabric ------------------------------------------------

// fakeNet is a zero-latency in-process transport fabric: Send delivers
// synchronously into the receiving node's handler, and an optional drop
// filter models lossy links for the timeout/retry paths. Connect hands each
// end's p2p.Greeter the other's hello, as memnet does.
type fakeNet struct {
	mu   sync.Mutex
	eps  map[string]*fakeEP
	drop func(from, to string, ft byte) bool
	// refuse fails a send at once, the error returned to the sender, as
	// memnet does where its radio has no path.
	refuse func(from, to string) bool

	// Wire accounting (see startCounting): every delivered frame's payload
	// size, for bytes-on-wire comparisons in benchmarks.
	counting    bool
	countBytes  int64
	countFrames int64
}

type fakeEP struct {
	net    *fakeNet
	name   string
	h      p2p.Handler
	mu     sync.Mutex
	peers  map[string]bool
	closed bool
}

func newFakeNet() *fakeNet { return &fakeNet{eps: make(map[string]*fakeEP)} }

// setDrop swaps the in-flight loss filter.
func (f *fakeNet) setDrop(fn func(from, to string, ft byte) bool) {
	f.mu.Lock()
	f.drop = fn
	f.mu.Unlock()
}

// startCounting zeroes and enables delivered-frame accounting.
func (f *fakeNet) startCounting() {
	f.mu.Lock()
	f.counting, f.countBytes, f.countFrames = true, 0, 0
	f.mu.Unlock()
}

// stopCounting disables accounting and reports (bytes, frames) delivered
// since startCounting.
func (f *fakeNet) stopCounting() (int64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counting = false
	return f.countBytes, f.countFrames
}

func (f *fakeNet) endpoint(name string, h p2p.Handler) *fakeEP {
	f.mu.Lock()
	defer f.mu.Unlock()
	ep := &fakeEP{net: f, name: name, h: h, peers: make(map[string]bool)}
	f.eps[name] = ep
	return ep
}

func (e *fakeEP) Addr() string { return e.name }

func (e *fakeEP) Connect(addr string) error {
	e.net.mu.Lock()
	peer, ok := e.net.eps[addr]
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("fakeNet: no endpoint %q", addr)
	}
	e.mu.Lock()
	known := e.peers[addr]
	e.peers[addr] = true
	e.mu.Unlock()
	if known || addr == e.name {
		return nil
	}
	peer.mu.Lock()
	peer.peers[e.name] = true
	peer.mu.Unlock()
	fakeGreet(peer, e)
	fakeGreet(e, peer)
	return nil
}

// fakeGreet hands from's hello, if it has one, to to's Greeter.
func fakeGreet(to, from *fakeEP) {
	g, ok := to.h.(p2p.Greeter)
	if f, fok := from.h.(p2p.Greeter); ok && fok && len(f.Hello()) > 0 {
		g.HandleHello(from.name, f.Hello())
	}
}

// Peers keeps p2p.Transport's contract — sorted, and never modified once
// handed out — by building a fresh snapshot on every call.
func (e *fakeEP) Peers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.peers))
	for p := range e.peers {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

func (e *fakeEP) Send(peerAddr string, ft byte, payload []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("fakeNet: endpoint %q closed", e.name)
	}
	e.net.mu.Lock()
	peer, ok := e.net.eps[peerAddr]
	dropFn, refuse := e.net.drop, e.net.refuse
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("fakeNet: no endpoint %q", peerAddr)
	}
	if refuse != nil && refuse(e.name, peerAddr) {
		return fmt.Errorf("fakeNet: no path to %q", peerAddr)
	}
	if dropFn != nil && dropFn(e.name, peerAddr, ft) {
		return nil // lost in flight: sender sees success, like TCP
	}
	e.net.mu.Lock()
	if e.net.counting {
		e.net.countBytes += int64(len(payload))
		e.net.countFrames++
	}
	e.net.mu.Unlock()
	peer.h.HandleFrame(e.name, ft, payload)
	return nil
}

func (e *fakeEP) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	return nil
}

// syncTestNode bundles one node on the fake fabric with its own clock and
// telemetry registry.
type syncTestNode struct {
	*Node
	clock *sim.VClock
	reg   *telemetry.Registry
	epoch time.Time
}

func newSyncTestNode(t testing.TB, fn *fakeNet, name string, idx int, epoch time.Time, mutate func(cfg *Config)) *syncTestNode {
	t.Helper()
	idents, accounts := testRoster(3)
	fc := sim.NewVClock(epoch)
	reg := telemetry.NewRegistry()
	cfg := Config{
		Identity:    idents[idx],
		Accounts:    accounts,
		PoS:         pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		GenesisSeed: 42,
		Epoch:       epoch,
		NewTransport: func(h p2p.Handler) (p2p.Transport, error) {
			return fn.endpoint(name, h), nil
		},
		Clock:         fc,
		Telemetry:     reg,
		SnapshotEvery: 2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return &syncTestNode{Node: n, clock: fc, reg: reg, epoch: epoch}
}

// mineBlocks drives the node's own engine through count winning rounds,
// jumping its clock to each round's fire time.
func (n *syncTestNode) mineBlocks(t testing.TB, count int) {
	t.Helper()
	for i := 0; i < count; i++ {
		n.mu.Lock()
		r, ok := n.eng.NextRound()
		n.mu.Unlock()
		if !ok {
			t.Fatal("node cannot mine")
		}
		fire := n.epoch.Add(r.FireAt())
		if d := fire.Sub(n.clock.Now()); d > 0 {
			n.clock.Advance(d)
		}
		n.mu.Lock()
		res, err := n.eng.Mine(r)
		if err != nil {
			n.mu.Unlock()
			t.Fatalf("mine: %v", err)
		}
		if res != nil {
			n.scheduleMiningLocked()
		}
		n.mu.Unlock()
		if res != nil {
			n.relayBlock(res.Block, "", false)
		}
	}
}

func counter(reg *telemetry.Registry, name string) uint64 {
	return reg.Snapshot().Counter(name)
}

// --- incremental sync end-to-end ---------------------------------------------

// TestSyncCatchUpBatched: a gap of more than two batches is fetched in
// syncBatchBlocks-sized batches, each adopted as it arrives.
func TestSyncCatchUpBatched(t *testing.T) {
	const gap = 2*syncBatchBlocks + 10
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	b.mineBlocks(t, gap)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)

	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Height(), uint64(gap); got != want {
		t.Fatalf("height after sync = %d, want %d", got, want)
	}
	at, bt := a.Tip(), b.Tip()
	if at.Hash != bt.Hash {
		t.Fatal("tips diverge after sync")
	}
	if v := counter(a.reg, "livenode.sync.full_replays"); v != 0 {
		t.Errorf("sync.full_replays = %d, want 0 (pure catch-up)", v)
	}
	if v := counter(a.reg, "livenode.sync.blocks_fetched"); v != gap {
		t.Errorf("sync.blocks_fetched = %d, want %d", v, gap)
	}
	if v := counter(a.reg, "livenode.sync.batches"); v != 3 {
		t.Errorf("sync.batches = %d, want 3 (%d, %d and 10 blocks)", v, syncBatchBlocks, syncBatchBlocks)
	}
	if a.StoreErr() != nil {
		t.Fatalf("store error: %v", a.StoreErr())
	}
}

// TestConnectProbesAFanoutSample pins what joining costs: however many
// peers one Connect call dials, the locator probe goes to at most
// gossipFanout of them and counts as one sync round. A cluster no larger
// than the fan-out is probed whole, as before.
func TestConnectProbesAFanoutSample(t *testing.T) {
	for _, tc := range []struct{ peers, want int }{{20, gossipFanout}, {3, 3}} {
		t.Run(fmt.Sprintf("%d peers", tc.peers), func(t *testing.T) {
			mn := memnet.New(1, nil)
			a := newSyncTestNode(t, nil, "a", 0, time.Unix(1700000000, 0), func(cfg *Config) {
				cfg.NewTransport = func(h p2p.Handler) (p2p.Transport, error) { return mn.Listen("a", h) }
			})
			peers := make([]string, tc.peers)
			for i := range peers {
				peers[i] = fmt.Sprintf("peer%02d", i)
				if _, err := mn.Listen(peers[i], p2p.HandlerFunc(func(string, byte, []byte) {})); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Connect(peers...); err != nil {
				t.Fatal(err)
			}
			if got := len(a.net.Peers()); got != tc.peers {
				t.Fatalf("connected to %d peers, want %d", got, tc.peers)
			}
			probed := make(map[string]int)
			for _, ev := range mn.Events() {
				if ev.Kind == memnet.EvSend && ev.Frame == p2p.FrameSyncLocator {
					probed[ev.To]++
				}
			}
			if len(probed) != tc.want {
				t.Fatalf("locator went to %d peers, want %d: %v", len(probed), tc.want, probed)
			}
			for to, k := range probed {
				if k != 1 {
					t.Errorf("%s was probed %d times", to, k)
				}
			}
			if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
				t.Errorf("sync.rounds = %d, want 1: one probe set is one round", v)
			}
		})
	}
}

// TestConnectSurvivesADeadAddress: one unreachable address among five costs
// nothing but its line in the returned error — the other four are peers and
// the one locator round goes to (a sample of) them.
func TestConnectSurvivesADeadAddress(t *testing.T) {
	mn := memnet.New(1, nil)
	a := newSyncTestNode(t, nil, "a", 0, time.Unix(1700000000, 0), func(cfg *Config) {
		cfg.NewTransport = func(h p2p.Handler) (p2p.Transport, error) { return mn.Listen("a", h) }
	})
	addrs := []string{"peer0", "peer1", "dead", "peer2", "peer3"}
	for _, p := range addrs {
		if p == "dead" {
			continue
		}
		if _, err := mn.Listen(p, p2p.HandlerFunc(func(string, byte, []byte) {})); err != nil {
			t.Fatal(err)
		}
	}
	err := a.Connect(addrs...)
	if err == nil || !strings.Contains(err.Error(), "dead") || strings.Contains(err.Error(), "peer") {
		t.Fatalf("Connect error %v, want one that names the dead address only", err)
	}
	if got := a.net.Peers(); len(got) != 4 {
		t.Fatalf("peers after Connect: %v, want the four live ones", got)
	}
	locators := 0
	for _, ev := range mn.Events() {
		if ev.Kind == memnet.EvSend && ev.Frame == p2p.FrameSyncLocator {
			if locators++; ev.To == "dead" {
				t.Fatal("locator sent to the address that refused the dial")
			}
		}
	}
	if locators == 0 || locators > gossipFanout {
		t.Fatalf("%d locators sent, want 1..%d", locators, gossipFanout)
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 1 {
		t.Errorf("sync.rounds = %d, want 1", v)
	}
}

// recoveredStore is an in-memory store that "recovers" a fixed chain prefix,
// standing in for a node restarted from its WAL.
type recoveredStore struct {
	*store.MemStore
	blocks []*block.Block
}

func (s recoveredStore) RecoveredBlocks() []*block.Block { return s.blocks }

// TestRestartCatchesUpWhenSampleIsBehind is the fall-back the sampled probe
// leans on: a restarted node whose whole connect-time sample is no further
// than itself learns nothing from the probe, and the next block pushed by a
// peer that is ahead does not fit its tip and takes it to the locator.
func TestRestartCatchesUpWhenSampleIsBehind(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	c := newSyncTestNode(t, fn, "c", 2, epoch, nil)
	c.mineBlocks(t, 10)
	c.clock.Advance(time.Second)                    // block 10's backup announce leaves, to nobody
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil) // never saw a block
	// a comes back with the first four blocks on disk and finds only b.
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.Store = recoveredStore{store.NewMemStore(), c.ChainSnapshot()[1:5]}
		cfg.Clock = sim.NewVClock(c.clock.Now()) // replay refuses blocks from the future
	})
	if got := a.Height(); got != 4 {
		t.Fatalf("recovered height = %d, want 4 (%v)", got, a.StoreErr())
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Connect("a"); err != nil { // c's own probe finds a behind: no answer
		t.Fatal(err)
	}
	if got := a.Height(); got != 4 {
		t.Fatalf("height after probing a sample that is behind = %d, want 4 still", got)
	}
	if b.Height() != 0 {
		t.Fatalf("b moved to height %d", b.Height())
	}

	c.mineBlocks(t, 1) // pushes block 11 to a
	if got, want := a.Height(), uint64(11); got != want {
		t.Fatalf("height after the next block = %d, want %d", got, want)
	}
	if a.Tip().Hash != c.Tip().Hash {
		t.Fatal("tips diverge after catch-up")
	}
	if v := counter(a.reg, "livenode.sync.rounds"); v != 2 {
		t.Errorf("sync.rounds = %d, want 2 (connect probe, then the pushed block's locator)", v)
	}
	if v := counter(a.reg, "livenode.gossip.fetches_sent"); v != 0 {
		t.Errorf("gossip.fetches_sent = %d, want 0 (the body came unasked)", v)
	}
}

func TestSyncForkSuffixFromSnapshot(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)

	// Common prefix: A mines 4 (snapshots at 2 and 4), B follows along,
	// fetching each announced body from A.
	a.mineBlocks(t, 4)
	for _, blk := range a.ChainSnapshot()[1:] {
		b.handleFrame("a", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	}
	if b.Height() != 4 {
		t.Fatalf("b at %d, want 4", b.Height())
	}
	// Diverge: A mines 1 on its branch, B mines 3 on its own.
	a.mineBlocks(t, 1)
	b.mineBlocks(t, 3)

	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Height(), uint64(7); got != want {
		t.Fatalf("height after fork sync = %d, want %d", got, want)
	}
	if a.Tip().Hash != b.Tip().Hash {
		t.Fatal("tips diverge after fork sync")
	}
	if v := counter(a.reg, "livenode.sync.full_replays"); v != 0 {
		t.Errorf("sync.full_replays = %d, want 0 (fork point at snapshot)", v)
	}
	if v := counter(a.reg, "livenode.fork.adoptions"); v != 1 {
		t.Errorf("fork.adoptions = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.sync.blocks_fetched"); v != 3 {
		t.Errorf("sync.blocks_fetched = %d, want 3 (suffix only)", v)
	}
	// The WAL was rewritten to the adopted branch: a restart from the same
	// store must recover the synced chain, not the abandoned one.
	if a.StoreErr() != nil {
		t.Fatalf("store error: %v", a.StoreErr())
	}
}

// TestSyncedBlocksTakeTheLivePath: blocks that arrive by locator sync get
// what a live block gets — OnBlock fires for each — and after a true fork the
// WAL holds exactly the adopted chain: the abandoned branch cut off by
// onDisconnect, the new one appended block by block by onAppend. A crash and
// restart from the same directory recovers the chain the node stood on. An
// item only the abandoned branch had packed is not lost with it: it is back
// in its publisher's pool, pushed again on the next adoption, and packed.
func TestSyncedBlocksTakeTheLivePath(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	notified := make(map[block.Hash]bool)
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.Store = st
		cfg.OnBlock = func(b *block.Block) {
			mu.Lock()
			notified[b.Hash] = true
			mu.Unlock()
		}
	})
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)

	// Common prefix of 4, then A mines 1 on its branch and B 3 on its own.
	a.mineBlocks(t, 4)
	for _, blk := range a.ChainSnapshot()[1:] {
		b.handleFrame("a", p2p.FrameBlockAnnounce, encodeAnnounce(blk.Index, blk.Hash))
	}
	stranded, err := a.Publish([]byte("stranded"), "Test/Fork", "Lab") // no peer yet: only a pools it
	if err != nil {
		t.Fatal(err)
	}
	a.mineBlocks(t, 1)
	abandoned := a.Tip()
	if !a.HasItemOnChain(stranded.ID) {
		t.Fatal("a's own block did not pack its item")
	}
	b.mineBlocks(t, 3)
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.HasItemOnChain(stranded.ID) || !slices.Contains(a.PoolIDs(), stranded.ID) || !slices.Contains(a.gossip.own, stranded.ID) {
		t.Fatal("the abandoned block's item is not back in a's pool and on its own list")
	}
	adopted := a.ChainSnapshot()
	if len(adopted) != 8 || a.Tip().Hash != b.Tip().Hash {
		t.Fatalf("a holds %d blocks after fork sync, want b's 8", len(adopted))
	}
	waitFor(t, 5*time.Second, "OnBlock for every synced block", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return notified[adopted[5].Hash] && notified[adopted[6].Hash] && notified[adopted[7].Hash]
	})
	if v := counter(a.reg, "livenode.blocks.adopted"); v != 8 {
		t.Errorf("blocks.adopted = %d, want 8 (5 mined here, 3 synced)", v)
	}

	// The next block a adopts is two rounds past the item: a announces it
	// again, b fetches and pools it, and b's next block packs it.
	for i := 0; i < 2; i++ {
		b.mineBlocks(t, 1)
		a.clock.Advance(b.clock.Now().Sub(a.clock.Now()))
	}
	if !a.HasItemOnChain(stranded.ID) || !b.HasItemOnChain(stranded.ID) {
		t.Fatalf("re-pooled item on chain at a: %v, at b: %v, want both", a.HasItemOnChain(stranded.ID), b.HasItemOnChain(stranded.ID))
	}
	adopted = a.ChainSnapshot()

	if err := a.Kill(); err != nil || a.StoreErr() != nil {
		t.Fatalf("kill: %v, store: %v", err, a.StoreErr())
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	wal := reopened.RecoveredBlocks()
	if len(wal) != 9 {
		t.Fatalf("WAL recovers %d blocks, want the 9 of the adopted chain", len(wal))
	}
	for i, blk := range wal {
		if blk.Hash == abandoned.Hash || blk.Hash != adopted[i+1].Hash {
			t.Fatalf("WAL block %d is not the adopted chain's", blk.Index)
		}
	}
}

// deadFrameTypes are type bytes no handler may act on: the six retired
// ones (full-block push, whole-chain request and reply, heartbeat
// broadcast, the repair plane's own request and answer) and the first
// number above the highest live type.
var deadFrameTypes = []byte{2, 4, 5, 12, 13, 14, p2p.FrameCompactBlock + 1}

// deadFrameStoresNothing gives a dead type byte the one thing the retired
// repair answer (14) needed to be stored: a fetch pending for the DataID its
// payload starts with, waiting on a silent candidate (registered, never
// asked, so no timer ends it). Whatever follows the ID, nothing may be stored
// and the fetch must stay pending.
func deadFrameStoresNothing(t *testing.T, n *Node, ft byte, payload []byte) {
	t.Helper()
	if len(payload) < len(meta.DataID{}) || n.store.HasData(meta.DataID(payload[:32])) {
		return
	}
	id := meta.DataID(payload[:32])
	pending := func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.fetches.pending[id] != nil
	}
	if !pending() {
		n.mu.Lock()
		n.fetches.begin(id, []string{"silent"})
		n.mu.Unlock()
	}
	n.handleFrame("fuzzer", ft, payload)
	if n.store.HasData(id) || !pending() {
		t.Fatalf("dead frame type %d answered a pending fetch: stored=%v, still pending=%v", ft, n.store.HasData(id), pending())
	}
}

// lastSyncAbort returns the detail of the newest sync_abort event.
func lastSyncAbort(reg *telemetry.Registry) string {
	events := reg.Events().Events()
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Name == "sync_abort" {
			return events[i].Detail
		}
	}
	return ""
}

// TestSyncBatchTimeoutRetriesThenAborts is the end of the sync ladder: a
// peer that never answers batch requests costs the retry budget and then
// the session, nothing else — and the next announce from any other peer
// starts a fresh session that catches the node up.
func TestSyncBatchTimeoutRetriesThenAborts(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	b.mineBlocks(t, 5)
	c := newSyncTestNode(t, fn, "c", 2, epoch, nil)
	if err := c.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if c.Height() != 5 {
		t.Fatalf("c at %d after syncing from b, want 5", c.Height())
	}
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)

	// b's batches vanish in flight; everything else is delivered.
	log := watchFrames(fn, func(from, to string, ft byte) bool {
		return from == "b" && ft == p2p.FrameSyncBatch
	})
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.Height() != 0 {
		t.Fatalf("height = %d before any retry, want 0", a.Height())
	}
	// Exponential backoff: syncTimeout doubles per retry, and the attempt
	// after the last retry exhausts the budget.
	wait := syncTimeout
	for retry := 1; retry <= syncRetries; retry++ {
		a.clock.Advance(wait - time.Millisecond)
		if v := counter(a.reg, "livenode.sync.retries"); v != uint64(retry-1) {
			t.Fatalf("sync.retries = %d before timeout %d fired, want %d", v, retry, retry-1)
		}
		a.clock.Advance(time.Millisecond)
		if v := counter(a.reg, "livenode.sync.retries"); v != uint64(retry) {
			t.Fatalf("sync.retries = %d after timeout %d, want %d", v, retry, retry)
		}
		wait *= 2
	}
	a.clock.Advance(wait)
	if v := counter(a.reg, "livenode.sync.aborts"); v != 1 {
		t.Fatalf("sync.aborts = %d after the retry budget, want 1", v)
	}
	if v := counter(a.reg, "livenode.sync.retries"); v != syncRetries {
		t.Errorf("sync.retries = %d after the abort, want still %d", v, syncRetries)
	}
	if why := lastSyncAbort(a.reg); !strings.Contains(why, "peer b") {
		t.Errorf("sync_abort event %q does not name the silent peer", why)
	}
	a.Node.mu.Lock()
	session, mining := a.Node.sync, a.Node.mineTimer
	a.Node.mu.Unlock()
	if session != nil {
		t.Fatal("session survived its retry budget")
	}
	if mining == nil {
		t.Error("no mining timer armed after the abort")
	}
	if a.Height() != 0 {
		t.Fatalf("height = %d after the abort, want 0", a.Height())
	}
	for _, ft := range deadFrameTypes {
		if n := log.count(ft); n != 0 {
			t.Errorf("%d frames of retired type %d on the wire", n, ft)
		}
	}

	// An announce from c — any peer, not the one that went silent — restarts
	// sync: the fetched tip does not fit, so a sends c a locator and drains
	// the suffix from it.
	link(t, a, c)
	tip := c.Tip()
	a.handleFrame("c", p2p.FrameBlockAnnounce, encodeAnnounce(tip.Index, tip.Hash))
	if a.Height() != 5 || a.Tip().Hash != tip.Hash {
		t.Fatalf("a at height %d after c's announce, want c's tip at 5", a.Height())
	}
	if v := counter(a.reg, "livenode.sync.aborts"); v != 1 {
		t.Errorf("sync.aborts = %d after catching up, want still 1", v)
	}
}

// TestSyncHeadersNotPastTipRefused: an offer whose header range ends at or
// below our height (a fork deeper than the reorg bound, or a forgery) opens
// no session, arms no timer and is counted as one abort.
func TestSyncHeadersNotPastTipRefused(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)
	a.mineBlocks(t, 3)
	log := watchFrames(fn, nil)
	timers := a.clock.Pending()

	genesis := a.ChainSnapshot()[0]
	for _, last := range []uint64{2, 3} { // below the tip, and exactly at it
		offer := syncHeaders{Fork: 0, ForkHash: genesis.Hash, Tip: 10}
		for h := uint64(1); h <= last; h++ {
			offer.Headers = append(offer.Headers, chain.LocatorEntry{Height: h, Hash: block.Hash{byte(h)}})
		}
		before := counter(a.reg, "livenode.sync.aborts")
		a.handleFrame("evil", p2p.FrameSyncHeaders, encodeSyncHeaders(offer))
		if v := counter(a.reg, "livenode.sync.aborts"); v != before+1 {
			t.Errorf("range ending at %d: sync.aborts %d -> %d, want one more", last, before, v)
		}
		if why := lastSyncAbort(a.reg); !strings.Contains(why, "evil") || !strings.Contains(why, "fork 3 blocks deep") {
			t.Errorf("range ending at %d: sync_abort event %q lacks the peer or the fork depth", last, why)
		}
	}
	a.Node.mu.Lock()
	session := a.Node.sync
	a.Node.mu.Unlock()
	if session != nil {
		t.Fatal("an offer that cannot reach past our tip opened a session")
	}
	if got := a.clock.Pending(); got != timers {
		t.Errorf("%d timers armed, %d before the offers", got, timers)
	}
	if len(log.seen) != 0 {
		t.Errorf("refused offers put frames on the wire: %v", log.seen)
	}
	if a.Height() != 3 {
		t.Fatalf("height = %d, want 3", a.Height())
	}
}

// TestRetiredFrameTypesIgnored feeds the six retired type bytes, and the
// byte above the highest live type, payloads their old handlers would have
// acted on — a block extending the tip, a whole longer chain, a roster
// index to bind, the content of a pending fetch — and checks that chain,
// pool, store, roster table and detector all stay put. They come from an
// address no hello bound: any frame from a bound one is liveness evidence.
func TestRetiredFrameTypesIgnored(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	clk := sim.NewVClock(epoch)
	repairOn := func(cfg *Config) { cfg.RepairWorkers = 1 }
	a := newGossipTestNode(t, fn, clk, "a", 0, epoch, repairOn)
	b := newGossipTestNode(t, fn, clk, "b", 1, epoch, repairOn)
	a.stopMining()
	if _, err := b.Publish([]byte("packed by b"), "Road/Congestion", "lab"); err != nil {
		t.Fatal(err)
	}
	b.mineBlocks(t, 2)
	link(t, a, b)
	wanted := []byte("a fetch is pending for this") // deadFrameStoresNothing keeps it pending
	log := watchFrames(fn, nil)

	longer := b.ChainSnapshot()
	wholeChain := putU64(nil, uint64(len(longer)))
	for _, blk := range longer {
		enc := blk.Encode()
		wholeChain = append(putU64(wholeChain, uint64(len(enc))), enc...)
	}
	payloads := [][]byte{longer[1].Encode(), wholeChain, putU32(nil, 1), nil}

	lastSeen := func() (out []time.Duration) {
		a.Node.mu.Lock()
		defer a.Node.mu.Unlock()
		for i := range a.cfg.Accounts {
			out = append(out, a.repair.det.LastSeen(i))
		}
		return out
	}
	boundTable := func() int {
		a.Node.mu.Lock()
		defer a.Node.mu.Unlock()
		return len(a.idxOf)
	}
	clk.Advance(time.Millisecond) // evidence recorded now would be newer than at start
	seenBefore, boundBefore := lastSeen(), boundTable()

	for _, ft := range deadFrameTypes {
		for _, payload := range payloads {
			a.handleFrame("x", ft, payload)
		}
		id := meta.HashData(wanted)
		deadFrameStoresNothing(t, a.Node, ft, append(id[:], wanted...))
	}
	if a.Height() != 0 {
		t.Errorf("a retired frame moved the chain to height %d", a.Height())
	}
	if pooled := len(a.PoolIDs()); pooled != 0 {
		t.Errorf("a retired frame pooled %d items", pooled)
	}
	if bound := boundTable(); bound != boundBefore {
		t.Errorf("retired frames bound %d roster addresses, %d before", bound, boundBefore)
	}
	if got := lastSeen(); !reflect.DeepEqual(got, seenBefore) {
		t.Errorf("a retired frame refreshed the detector: %v -> %v", seenBefore, got)
	}
	if len(log.seen) != 0 {
		t.Errorf("retired frames drew answers: %v", log.seen)
	}
}

func TestSyncBatchDivergingFromHeadersAborts(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	b.mineBlocks(t, 3)
	a := newSyncTestNode(t, fn, "a", 0, epoch, nil)

	// Forge an offer: real fork point, real tip height, but header hashes
	// that do not match the blocks the "peer" will actually deliver.
	genesis := a.ChainSnapshot()[0]
	hdrs := syncHeaders{Fork: 0, ForkHash: genesis.Hash, Tip: 3}
	for i := uint64(1); i <= 3; i++ {
		hdrs.Headers = append(hdrs.Headers, chain.LocatorEntry{Height: i, Hash: block.Hash{byte(i)}})
	}
	a.handleFrame("evil", p2p.FrameSyncHeaders, encodeSyncHeaders(hdrs))
	a.Node.mu.Lock()
	if a.Node.sync == nil {
		a.Node.mu.Unlock()
		t.Fatal("offer did not open a session")
	}
	a.Node.mu.Unlock()

	// Deliver structurally valid blocks whose hashes differ from the offer.
	real := b.ChainSnapshot()[1:]
	a.handleFrame("evil", p2p.FrameSyncBatch, encodeBatch(1, real))
	if v := counter(a.reg, "livenode.sync.aborts"); v != 1 {
		t.Fatalf("sync.aborts = %d, want 1", v)
	}
	a.Node.mu.Lock()
	if a.Node.sync != nil {
		a.Node.mu.Unlock()
		t.Fatal("session survived a diverging batch")
	}
	a.Node.mu.Unlock()
	if a.Height() != 0 {
		t.Fatalf("height = %d, want 0 (nothing adopted)", a.Height())
	}
}

func TestSyncResponderAnswersLocatorAndRange(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	b.mineBlocks(t, 6)

	// An empty range request and an inverted one must be ignored without a
	// response (and without panicking).
	b.handleFrame("x", p2p.FrameSyncGetBatch, encodeGetBatch(100, 200))
	b.handleFrame("x", p2p.FrameSyncGetBatch, []byte{1, 2, 3})

	genesisHash := b.ChainSnapshot()[0].Hash
	b.Node.mu.Lock()
	resp := b.Node.buildSyncHeadersLocked([]chain.LocatorEntry{{Height: 0, Hash: genesisHash}})
	b.Node.mu.Unlock()
	h, err := decodeSyncHeaders(resp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fork != 0 || h.Tip != 6 || len(h.Headers) != 6 {
		t.Fatalf("headers answer: fork %d tip %d len %d, want 0/6/6", h.Fork, h.Tip, len(h.Headers))
	}
	// A locator from a disjoint chain yields no offer.
	b.Node.mu.Lock()
	none := b.Node.buildSyncHeadersLocked([]chain.LocatorEntry{{Height: 0, Hash: block.Hash{0xff}}})
	b.Node.mu.Unlock()
	if none != nil {
		t.Fatal("disjoint locator produced an offer")
	}
	// A peer at our tip, or ahead of us on our own chain, is owed nothing: no
	// empty FrameSyncHeaders goes back (the receiver would ignore it).
	spy := spyOn(t, fn, b, "spy")
	b.Node.mu.Lock()
	loc := b.eng.Chain().Locator()
	b.Node.mu.Unlock()
	b.handleFrame("spy", p2p.FrameSyncLocator, encodeLocator(loc))
	if len(*spy) != 0 {
		t.Fatalf("a locator at our own tip was answered with %v", *spy)
	}
	b.handleFrame("spy", p2p.FrameSyncLocator, encodeLocator(loc[1:]))
	if len(*spy) != 1 || (*spy)[0].ft != p2p.FrameSyncHeaders {
		t.Fatalf("a locator one block behind was answered with %v, want one FrameSyncHeaders", *spy)
	}
}

// --- codec adversarial cases --------------------------------------------------

// putUv appends a varint, the sync and gossip codecs' word; putU64 and
// putU32 append the fixed-width words that the probe frames still carry and
// the retired frames used to.
func putUv(out []byte, v uint64) []byte  { return binary.AppendUvarint(out, v) }
func putU64(out []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(out, v) }
func putU32(out []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(out, v) }

func TestSyncCodecsRejectMalformedFrames(t *testing.T) {
	goodLoc := encodeLocator([]chain.LocatorEntry{{Height: 5, Hash: block.Hash{1}}, {Height: 0, Hash: block.Hash{2}}})
	if _, err := decodeLocator(goodLoc); err != nil {
		t.Fatalf("round-trip locator: %v", err)
	}
	goodHdrs := encodeSyncHeaders(syncHeaders{Fork: 3, Tip: 6, Headers: []chain.LocatorEntry{{Height: 4}, {Height: 5}}})
	if _, err := decodeSyncHeaders(goodHdrs); err != nil {
		t.Fatalf("round-trip headers: %v", err)
	}

	cases := []struct {
		name string
		run  func() error
	}{
		{"locator truncated", func() error { _, err := decodeLocator(goodLoc[:len(goodLoc)-3]); return err }},
		{"locator trailing bytes", func() error { _, err := decodeLocator(append(goodLoc, 0)); return err }},
		{"locator empty count", func() error { _, err := decodeLocator(putUv(nil, 0)); return err }},
		{"locator oversized count", func() error { _, err := decodeLocator(putUv(nil, 1<<30)); return err }},
		{"locator ascending heights", func() error {
			_, err := decodeLocator(encodeLocator([]chain.LocatorEntry{{Height: 1}, {Height: 5}}))
			return err
		}},
		{"headers truncated", func() error { _, err := decodeSyncHeaders(goodHdrs[:10]); return err }},
		{"headers oversized count", func() error {
			big := syncHeaders{Tip: maxSyncHeaders + 1, Headers: make([]chain.LocatorEntry, maxSyncHeaders+1)}
			for i := range big.Headers {
				big.Headers[i].Height = uint64(i + 1)
			}
			_, err := decodeSyncHeaders(encodeSyncHeaders(big))
			return err
		}},
		{"headers count past the payload", func() error {
			p := putUv(nil, 0)
			p = append(p, make([]byte, 32)...)
			p = putUv(putUv(p, 10), 1<<60)
			_, err := decodeSyncHeaders(p)
			return err
		}},
		{"headers gap after fork", func() error {
			_, err := decodeSyncHeaders(encodeSyncHeaders(syncHeaders{Fork: 3, Tip: 9, Headers: []chain.LocatorEntry{{Height: 5}, {Height: 6}}}))
			return err
		}},
		{"headers descending range", func() error {
			_, err := decodeSyncHeaders(encodeSyncHeaders(syncHeaders{Fork: 3, Tip: 9, Headers: []chain.LocatorEntry{{Height: 5}, {Height: 4}}}))
			return err
		}},
		{"headers overlapping range", func() error {
			_, err := decodeSyncHeaders(encodeSyncHeaders(syncHeaders{Fork: 3, Tip: 9, Headers: []chain.LocatorEntry{{Height: 4}, {Height: 4}}}))
			return err
		}},
		{"get-batch short", func() error { _, _, err := decodeGetBatch([]byte{1}); return err }},
		{"get-batch padded varint", func() error { _, _, err := decodeGetBatch([]byte{0x81, 0x00, 5}); return err }},
		{"get-batch inverted", func() error { _, _, err := decodeGetBatch(encodeGetBatch(9, 3)); return err }},
		{"get-batch from genesis", func() error { _, _, err := decodeGetBatch(encodeGetBatch(0, 3)); return err }},
		{"batch oversized count", func() error {
			p := putUv(putUv(nil, 1), maxSyncBatch+1)
			_, err := decodeBatch(append(p, make([]byte, maxSyncBatch+1)...))
			return err
		}},
		{"batch count past the payload", func() error {
			_, err := decodeBatch(putUv(putUv(nil, 1), 1<<60))
			return err
		}},
		{"batch truncated block", func() error {
			p := putUv(putUv(putUv(nil, 1), 1), 1000)
			p = append(p, 1, 2, 3)
			_, err := decodeBatch(p)
			return err
		}},
		{"batch garbage block", func() error {
			p := putUv(putUv(putUv(nil, 1), 1), 4)
			p = append(p, 1, 2, 3, 4)
			_, err := decodeBatch(p)
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
		}
	}
}
