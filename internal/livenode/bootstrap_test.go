package livenode

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/store"
)

func TestSnapshotChunkCodec(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 32)
	sum := sha256.Sum256(data)
	good := encodeSnapshotChunk(5, 32, sum, 0, 1, data)
	c, err := decodeSnapshotChunk(good)
	if err != nil {
		t.Fatal(err)
	}
	if c.Height != 5 || c.Total != 32 || c.Hash != sum || c.Idx != 0 || c.Count != 1 || !bytes.Equal(c.Data, data) {
		t.Fatal("round trip lost fields")
	}
	noSnap, err := decodeSnapshotChunk(encodeSnapshotChunk(0, 0, [sha256.Size]byte{}, 0, 0, nil))
	if err != nil || noSnap.Count != 0 {
		t.Fatalf("no-snapshot chunk rejected: %v", err)
	}

	full := bytes.Repeat([]byte{1}, snapChunkData)
	bad := [][]byte{
		good[:10], // truncated header
		good[:52], // exactly the fixed header of a data-carrying chunk, no data
		append(encodeSnapshotChunk(0, 0, [sha256.Size]byte{}, 0, 0, nil), 1),       // no-snapshot with data
		encodeSnapshotChunk(1, 4, sum, 0, 0, nil),                                  // count 0 with total
		encodeSnapshotChunk(1, 0, sum, 0, 1, nil),                                  // zero total with chunks
		encodeSnapshotChunk(1, maxSnapTotal+1, sum, 0, 257, full),                  // oversized total
		encodeSnapshotChunk(1, 32, sum, 0, 2, data),                                // count does not match total
		encodeSnapshotChunk(1, 32, sum, 1, 1, data),                                // index out of range
		encodeSnapshotChunk(1, 32, sum, 0, 1, data[:31]),                           // short chunk
		encodeSnapshotChunk(1, snapChunkData+1, sum, 1, 2, []byte{1, 2}),           // wrong last-chunk length
		encodeSnapshotChunk(1, snapChunkData+1, sum, 0, 2, full[:snapChunkData-1]), // wrong middle-chunk length
	}
	for i, payload := range bad {
		if _, err := decodeSnapshotChunk(payload); err == nil {
			t.Fatalf("malformed chunk %d accepted", i)
		}
	}
}

// TestBootstrapInstallAndSuffixSync is the happy path: a fresh node asks
// its first peer for the finalized snapshot, installs it without replaying
// history, suffix-syncs the live blocks above the anchor, and then follows
// the chain like any other replica.
func TestBootstrapInstallAndSuffixSync(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	b.mineBlocks(t, 10) // snapshots at 4 and 8; anchor = 8, live suffix = 9..10

	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.SnapshotEvery = 4
		cfg.BootstrapSnapshot = true
	})
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Height(), uint64(10); got != want {
		t.Fatalf("height after bootstrap = %d, want %d", got, want)
	}
	if a.Tip().Hash != b.Tip().Hash {
		t.Fatal("tips diverge after bootstrap")
	}
	a.mu.Lock()
	base, hdrBase := a.eng.Chain().BodyBase(), a.eng.Chain().HeaderBase()
	pending := a.boot != nil
	a.mu.Unlock()
	if base != 8 || hdrBase != 8 {
		t.Fatalf("bootstrapped replica bases = %d/%d, want 8/8 (no replayed history)", base, hdrBase)
	}
	if pending {
		t.Fatal("bootstrap session not torn down after install")
	}
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 1 {
		t.Errorf("bootstrap.installed = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.bootstrap.requests"); v != 1 {
		t.Errorf("bootstrap.requests = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.bootstrap.chunks"); v < 1 {
		t.Errorf("bootstrap.chunks = %d, want >= 1", v)
	}
	if v := counter(a.reg, "livenode.bootstrap.fallbacks"); v != 0 {
		t.Errorf("bootstrap.fallbacks = %d, want 0", v)
	}
	if v := counter(a.reg, "livenode.sync.blocks_fetched"); v != 2 {
		t.Errorf("sync.blocks_fetched = %d, want 2 (only the live suffix)", v)
	}
	if v := counter(b.reg, "livenode.bootstrap.served"); v != 1 {
		t.Errorf("bootstrap.served on peer = %d, want 1", v)
	}
	if err := a.StoreErr(); err != nil {
		t.Fatalf("store error: %v", err)
	}

	// The bootstrapped node keeps following the chain.
	b.mineBlocks(t, 3)
	if a.Height() != 13 || a.Tip().Hash != b.Tip().Hash {
		t.Fatalf("bootstrapped node lost the live chain at height %d", a.Height())
	}
}

// TestBootstrapHoldsMiningUntilConnect: a fresh node configured for
// snapshot bootstrap must not seal a local block in the window between
// process start and its first Connect — one self-mined block makes the
// engine non-fresh, forfeits the bootstrap, and against a peer that has
// pruned the fork point would split the two chains permanently.
func TestBootstrapHoldsMiningUntilConnect(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	b.mineBlocks(t, 10)

	// The node starts long after genesis, so its first PoS round fire time
	// is already past: unheld, it would mine at once. Time passes up to the
	// end of the hold before the operator's peer list is dialed; the held
	// node must stay fresh instead of mining its own fork.
	clk := sim.NewVClock(b.clock.Now())
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.SnapshotEvery = 4
		cfg.BootstrapSnapshot = true
		cfg.Clock = clk
	})
	a.mu.Lock()
	r, ok := a.eng.NextRound()
	a.mu.Unlock()
	if !ok || epoch.Add(r.FireAt()).After(clk.Now()) {
		t.Fatal("the first round is not due at start: the hold would be untested")
	}
	clk.Advance(bootstrapTimeout - time.Millisecond)
	if got := a.Height(); got != 0 {
		t.Fatalf("held node mined %d block(s) before Connect", got)
	}
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.Height() != b.Height() || a.Tip().Hash != b.Tip().Hash {
		t.Fatalf("bootstrap after hold: height %d vs peer %d", a.Height(), b.Height())
	}
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 1 {
		t.Errorf("bootstrap.installed = %d, want 1", v)
	}
	a.mu.Lock()
	armed := a.mineTimer != nil
	a.mu.Unlock()
	if !armed {
		t.Fatal("mining not re-armed after the bootstrap install")
	}
}

// TestBootstrapHoldExpiresWithoutPeers: the startup mining hold is a
// bounded wait, not a deadlock — a node whose peers never answer starts
// mining on its own after the bootstrap grace window. (This also proves
// the 10-minute window above gives an unheld node ample rounds to mine,
// so the hold — not slow PoS rounds — is what kept the node fresh.)
func TestBootstrapHoldExpiresWithoutPeers(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.BootstrapSnapshot = true
		// Grace = bootstrapTimeout.
	})
	a.clock.Advance(10 * time.Minute)
	if a.Height() == 0 {
		t.Fatal("hold never expired: isolated node mined nothing in 10 minutes")
	}
}

// TestBootstrapNoSnapshotFallsBack: a peer with no exportable snapshot
// answers with an explicit zero-count chunk, and the joiner degrades to
// plain suffix sync from genesis immediately.
func TestBootstrapNoSnapshotFallsBack(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 64 })
	b.mineBlocks(t, 3) // below the snapshot interval: nothing to offer

	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.BootstrapSnapshot = true })
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if got := a.Height(); got != 3 {
		t.Fatalf("height after fallback = %d, want 3", got)
	}
	if a.Tip().Hash != b.Tip().Hash {
		t.Fatal("tips diverge after fallback")
	}
	if v := counter(a.reg, "livenode.bootstrap.fallbacks"); v != 1 {
		t.Errorf("bootstrap.fallbacks = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 0 {
		t.Errorf("bootstrap.installed = %d, want 0", v)
	}
	if v := counter(a.reg, "livenode.sync.blocks_fetched"); v != 3 {
		t.Errorf("sync.blocks_fetched = %d, want 3 (full history)", v)
	}
}

// TestBootstrapTimeoutFallsBack: when every snapshot chunk is lost in
// flight, the single transfer deadline fires and the node falls back to
// locator sync — bootstrap is never a liveness risk.
func TestBootstrapTimeoutFallsBack(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	b.mineBlocks(t, 8)

	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameSnapshot })
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.BootstrapSnapshot = true })
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if !a.bootstrapPending() {
		t.Fatal("bootstrap should still be waiting for chunks")
	}
	if got := a.Height(); got != 0 {
		t.Fatalf("height %d before any chunk arrived", got)
	}
	a.clock.Advance(bootstrapTimeout + 500*time.Millisecond)
	if a.bootstrapPending() {
		t.Fatal("bootstrap session survived its deadline")
	}
	if got := a.Height(); got != 8 {
		t.Fatalf("height after timeout fallback = %d, want 8", got)
	}
	if a.Tip().Hash != b.Tip().Hash {
		t.Fatal("tips diverge after timeout fallback")
	}
	if v := counter(a.reg, "livenode.bootstrap.fallbacks"); v != 1 {
		t.Errorf("bootstrap.fallbacks = %d, want 1", v)
	}
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 0 {
		t.Errorf("bootstrap.installed = %d, want 0", v)
	}
}

// TestBootstrapHashMismatchNeverInstalls: a forged snapshot stream that
// fails content-hash verification must not reach the engine; the node
// falls back and syncs the real chain instead.
func TestBootstrapHashMismatchNeverInstalls(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, nil)
	b.mineBlocks(t, 3)

	// Silence the real peer so the forged stream is the only answer.
	fn.setDrop(func(from, to string, ft byte) bool { return ft == p2p.FrameGetSnapshot })
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.BootstrapSnapshot = true })
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if !a.bootstrapPending() {
		t.Fatal("bootstrap session should be pending")
	}
	data := []byte("not the advertised content")
	var wrongHash [sha256.Size]byte
	wrongHash[0] = 0xbad >> 4
	a.handleFrame("b", p2p.FrameSnapshot, encodeSnapshotChunk(7, uint64(len(data)), wrongHash, 0, 1, data))
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 0 {
		t.Fatalf("forged snapshot installed")
	}
	if v := counter(a.reg, "livenode.bootstrap.fallbacks"); v != 1 {
		t.Errorf("bootstrap.fallbacks = %d, want 1", v)
	}
	if got := a.Height(); got != 3 || a.Tip().Hash != b.Tip().Hash {
		t.Fatalf("fallback sync failed: height %d", got)
	}
	a.mu.Lock()
	base := a.eng.Chain().BodyBase()
	a.mu.Unlock()
	if base != 0 {
		t.Fatal("forged stream left a bootstrapped chain shape behind")
	}
}

// TestBootstrapPersistsAcrossRestart: the installed snapshot and the
// suffix blocks are durably persisted, so a restart stands the node back
// up at the same height with no peer around.
func TestBootstrapPersistsAcrossRestart(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 4 })
	b.mineBlocks(t, 10)

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) {
		cfg.SnapshotEvery = 4
		cfg.BootstrapSnapshot = true
		cfg.Store = st
	})
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	if a.Height() != 10 {
		t.Fatalf("height after bootstrap = %d", a.Height())
	}
	tip := a.Tip().Hash
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, h, ok := st2.RecoveredSnapshot(); !ok || h != 8 {
		t.Fatalf("snapshot not recovered: ok=%v h=%d", ok, h)
	}
	// A real restart happens after the wall clock has moved on; start the
	// reborn node at the miner's current time so replayed timestamps are
	// in its past.
	a2 := newSyncTestNode(t, fn, "a2", 0, epoch, func(cfg *Config) {
		cfg.SnapshotEvery = 4
		cfg.Store = st2
		cfg.Clock = sim.NewVClock(b.clock.Now())
	})
	if err := a2.StoreErr(); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if a2.Height() != 10 || a2.Tip().Hash != tip {
		t.Fatalf("restart lost the bootstrapped chain: height %d", a2.Height())
	}
	a2.mu.Lock()
	base := a2.eng.Chain().BodyBase()
	a2.mu.Unlock()
	if base == 0 {
		t.Fatal("restart replayed from genesis instead of the snapshot")
	}
}

// TestPrunedNodeRestartFromSnapshotAndWAL: a pruning node persists its
// horizon snapshot and compacts the WAL as it mines; a restart rebuilds
// the same tip from snapshot + remaining segments and keeps mining.
func TestPrunedNodeRestartFromSnapshotAndWAL(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways, SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	p := newSyncTestNode(t, fn, "p", 0, epoch, func(cfg *Config) {
		cfg.Store = st
		cfg.PruneDepth = 4
	})
	p.mineBlocks(t, 24)

	if v := counter(p.reg, "livenode.prune.runs"); v == 0 {
		t.Fatal("pruning never ran")
	}
	if v := counter(p.reg, "livenode.prune.snapshots_persisted"); v == 0 {
		t.Fatal("no snapshot persisted")
	}
	p.mu.Lock()
	base := p.eng.Chain().BodyBase()
	p.mu.Unlock()
	if base == 0 {
		t.Fatal("bodies never pruned")
	}
	// Compaction kept the WAL at O(prune window): an unpruned node would
	// hold 6 full segments after 24 appends at 4 blocks each.
	if segs := st.WALSegments(); segs >= 6 {
		t.Fatalf("%d WAL segments after compaction", segs)
	}
	tip := p.Tip().Hash
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{Sync: store.SyncAlways, SegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := st2.RecoveredSnapshot(); !ok {
		t.Fatal("no snapshot recovered on restart")
	}
	p2node := newSyncTestNode(t, fn, "p2", 0, epoch, func(cfg *Config) {
		cfg.Store = st2
		cfg.PruneDepth = 4
	})
	if err := p2node.StoreErr(); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if p2node.Height() != 24 || p2node.Tip().Hash != tip {
		t.Fatalf("restart lost the pruned chain: height %d", p2node.Height())
	}
	// Still a functioning miner after the snapshot-anchored restart.
	p2node.mineBlocks(t, 4)
	if p2node.Height() != 28 {
		t.Fatalf("pruned node stopped mining after restart: height %d", p2node.Height())
	}
	if err := p2node.StoreErr(); err != nil {
		t.Fatalf("store error after restart mining: %v", err)
	}
}

// TestExpiredBytesStayDeletedAcrossRestart: the block whose timestamp
// passes an item's valid time deletes the item's bytes as it is adopted, and
// a node killed right after it restarts from its persisted snapshot and WAL
// without them. The bytes are put back before the restart, as a crash
// between the block's log append and the delete would leave them: replaying
// the block deletes them again. A temp file an interrupted data write left
// is gone once the store opens.
func TestExpiredBytesStayDeletedAcrossRestart(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	dir := t.TempDir()
	opts := store.Options{Sync: store.SyncAlways, SegmentBlocks: 4}
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	durable := func(st store.Backend) func(cfg *Config) {
		return func(cfg *Config) {
			cfg.Store = st
			cfg.PruneDepth = 4
			cfg.SnapshotEvery = 4
		}
	}
	p := newSyncTestNode(t, fn, "p", 0, epoch, durable(st))
	p.mineBlocks(t, 4)

	// The item is produced at the next block's winning second and valid for
	// 1 ns: that block packs it, and the one after expires it.
	p.mu.Lock()
	r, ok := p.eng.NextRound()
	p.mu.Unlock()
	if !ok {
		t.Fatal("node cannot mine")
	}
	content := []byte("short-lived reading")
	it := &meta.Item{ID: meta.HashData(content), Type: "Test/Expiry", Produced: r.FireAt(), ValidFor: time.Nanosecond, DataSize: len(content)}
	it.Sign(p.cfg.Identity)
	if err := st.PutData(it.ID, content); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.eng.AddLocal(it)
	p.mu.Unlock()
	p.mineBlocks(t, 1)
	if !p.HasItemOnChain(it.ID) {
		t.Fatal("the next block did not pack the item")
	}
	for p.HasItemOnChain(it.ID) {
		p.mineBlocks(t, 1)
	}
	height, tip := p.Height(), p.Tip().Hash
	if height%4 == 0 {
		t.Fatalf("the item expired at snapshot height %d: the restart would not replay its block", height)
	}
	if p.HasData(it.ID) {
		t.Fatalf("block %d expired the item but its bytes are still held", height)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(dir, "data", "tmp", ".put-1"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, snapHeight, ok := st2.RecoveredSnapshot(); !ok || snapHeight >= height {
		t.Fatalf("recovered snapshot at %d (ok %v), want one below block %d", snapHeight, ok, height)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "data", "tmp")); err != nil || len(entries) != 0 {
		t.Fatalf("%d temp files left after Open (error %v)", len(entries), err)
	}
	if err := st2.PutData(it.ID, content); err != nil {
		t.Fatal(err)
	}
	// The restarted node's clock resumes where the killed one stopped, so
	// the replayed blocks are not from its future.
	resume := p.clock.Now()
	p2 := newSyncTestNode(t, fn, "p2", 0, epoch, func(cfg *Config) {
		durable(st2)(cfg)
		cfg.Clock = sim.NewVClock(resume)
	})
	if err := p2.StoreErr(); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if p2.Height() != height || p2.Tip().Hash != tip {
		t.Fatalf("restart recovered height %d, want %d", p2.Height(), height)
	}
	if p2.HasItemOnChain(it.ID) || p2.HasData(it.ID) {
		t.Fatalf("after the restart the expired item is on chain %v, its bytes held %v", p2.HasItemOnChain(it.ID), p2.HasData(it.ID))
	}
}

// TestPrunedSteadyStateBounded enforces the O(prune window) resource
// bound: body window, WAL segment count and snapshot files all stay flat
// while the chain grows to 200 blocks.
func TestPrunedSteadyStateBounded(t *testing.T) {
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways, SegmentBlocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := newSyncTestNode(t, fn, "p", 0, epoch, func(cfg *Config) {
		cfg.Store = st
		cfg.PruneDepth = 8
		cfg.SnapshotEvery = 4
	})
	var maxBodies, maxSegs int
	for i := 0; i < 20; i++ {
		p.mineBlocks(t, 10)
		p.mu.Lock()
		bodies := p.eng.Chain().BodyCount()
		p.mu.Unlock()
		maxBodies = max(maxBodies, bodies)
		maxSegs = max(maxSegs, st.WALSegments())
	}
	if p.Height() != 200 {
		t.Fatalf("height %d, want 200", p.Height())
	}
	// Horizon trails the tip by at most PruneDepth + checkpoint lag +
	// snapshot lag; anything near chain length means pruning broke.
	if maxBodies > 16 {
		t.Fatalf("body window peaked at %d blocks, want O(PruneDepth)", maxBodies)
	}
	if maxSegs > 5 {
		t.Fatalf("WAL peaked at %d segments, want O(PruneDepth/SegmentBlocks)", maxSegs)
	}
	if gauge := p.reg.Snapshot().Gauge("livenode.prune.horizon"); gauge < 180 {
		t.Fatalf("prune horizon gauge %d lagging at height 200", gauge)
	}
}

// TestColdJoinSnapshotGate is the issue's cold-join acceptance gate: on a
// long chain, a snapshot-bootstrap join must move at least 10x fewer wire
// bytes AND verify at least 10x fewer blocks than a suffix sync from
// genesis, and still land on the identical tip. The bootstrap itself is one
// snapshot chunk and a 16-block suffix at either scale, at most 4 400 B: the
// 3 493 B the 50k-block join measures plus a quarter (4 808 B in the
// fixed-width form, where the suffix sync read 13 018 640 B). The suffix
// sync reads 9 571 340 B in batches of 64 blocks; it read 9 566 254 B when
// this test asked for 256, the difference being the frame overhead of four
// times as many batch requests and replies.
func TestColdJoinSnapshotGate(t *testing.T) {
	height := 50_000
	if testing.Short() || raceEnabled {
		// The full-scale gate runs in its own CI step without -race; keep
		// the invariant exercised at reduced scale everywhere else.
		height = 2_000
	}
	fn := newFakeNet()
	epoch := time.Unix(1700000000, 0)
	b := newSyncTestNode(t, fn, "b", 1, epoch, func(cfg *Config) { cfg.SnapshotEvery = 64 })
	b.mineBlocks(t, height)

	// Control: plain suffix sync from genesis.
	c := newSyncTestNode(t, fn, "c", 2, epoch, nil)
	fn.startCounting()
	if err := c.Connect("b"); err != nil {
		t.Fatal(err)
	}
	syncBytes, _ := fn.stopCounting()
	if c.Height() != uint64(height) || c.Tip().Hash != b.Tip().Hash {
		t.Fatalf("suffix-sync join failed: height %d", c.Height())
	}
	syncBlocks := counter(c.reg, "livenode.sync.blocks_fetched")

	// Snapshot bootstrap.
	a := newSyncTestNode(t, fn, "a", 0, epoch, func(cfg *Config) { cfg.BootstrapSnapshot = true })
	fn.startCounting()
	if err := a.Connect("b"); err != nil {
		t.Fatal(err)
	}
	bootBytes, _ := fn.stopCounting()
	if a.Height() != uint64(height) || a.Tip().Hash != b.Tip().Hash {
		t.Fatalf("bootstrap join failed: height %d", a.Height())
	}
	if v := counter(a.reg, "livenode.bootstrap.installed"); v != 1 {
		t.Fatalf("bootstrap.installed = %d, want 1", v)
	}
	bootBlocks := counter(a.reg, "livenode.sync.blocks_fetched")

	t.Logf("cold join at height %d: suffix sync %d bytes / %d blocks, bootstrap %d bytes / %d blocks",
		height, syncBytes, syncBlocks, bootBytes, bootBlocks)
	if syncBytes < 10*bootBytes {
		t.Fatalf("wire bytes: bootstrap %d vs suffix %d — less than 10x saving", bootBytes, syncBytes)
	}
	if bootBytes > 4400 {
		t.Fatalf("bootstrap join moved %d wire bytes, want <= 4400", bootBytes)
	}
	if syncBlocks < 10*max(bootBlocks, 1) {
		t.Fatalf("verified blocks: bootstrap %d vs suffix %d — less than 10x saving", bootBlocks, syncBlocks)
	}
	if v := counter(b.reg, "livenode.wire.snapshot_bytes"); v == 0 {
		t.Fatal("snapshot wire bytes not accounted on the serving side")
	}
}
