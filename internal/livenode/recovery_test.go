package livenode

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func startNodeWithStore(t *testing.T, ident *identity.Identity, accounts []identity.Address, epoch time.Time, t0 time.Duration, st store.Backend) *Node {
	t.Helper()
	node, err := New(Config{
		Identity:    ident,
		Accounts:    accounts,
		PoS:         pos.Params{M: pos.DefaultM, T0: t0},
		GenesisSeed: 42,
		Epoch:       epoch,
		ListenAddr:  "127.0.0.1:0",
		Store:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// TestRecoveryAfterTornWAL is the issue's acceptance scenario: a node is
// killed mid-run leaving a torn WAL record, restarts with the same data
// dir, recovers height N−1 from disk, and catches the lost tail back up
// over the normal p2p chain-sync path.
func TestRecoveryAfterTornWAL(t *testing.T) {
	idents, accounts := testRoster(2)
	epoch := time.Now()
	dirA := t.TempDir()

	stA, err := store.Open(dirA, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	a := startNodeWithStore(t, idents[0], accounts, epoch, time.Second, stA)
	b := startNode(t, idents[1], accounts, epoch, time.Second)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "three blocks", func() bool {
		return a.Height() >= 3 && b.Height() >= 3
	})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Count the durably-logged blocks, then simulate the crash: tear the
	// last WAL record mid-payload. The segmented WAL names its first
	// segment after its first block index (block 1).
	walPath := filepath.Join(dirA, "wal3-00000000000000000001.log")
	persisted, _, err := store.ScanWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	n := len(persisted)
	if n < 3 {
		t.Fatalf("only %d blocks persisted", n)
	}
	wantHash := persisted[n-2].Hash // tip hash after losing the last record
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walPath, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	// Restart from the same data dir: the torn record is truncated away
	// and exactly the blocks before it are replayed.
	stA2, err := store.Open(dirA, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stA2.RecoveredBlocks()); got != n-1 {
		t.Fatalf("recovered %d blocks from torn WAL, want %d", got, n-1)
	}
	a2 := startNodeWithStore(t, idents[0], accounts, epoch, time.Second, stA2)
	if err := a2.StoreErr(); err != nil {
		t.Fatalf("replay error: %v", err)
	}
	if h := a2.Height(); h < uint64(n-1) {
		t.Fatalf("restarted height %d, want >= %d", h, n-1)
	}
	if got, ok := a2.BlockHashAt(uint64(n - 1)); !ok || got != wantHash {
		t.Fatalf("replayed block %d hash mismatch", n-1)
	}

	// Reconnect and catch up the lost tail by locator sync — the paper's
	// reconnect-and-recover behaviour end-to-end.
	if err := a2.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "catch-up past the torn block", func() bool {
		h := b.Height()
		if a2.Height() < h {
			return false
		}
		want, ok1 := b.BlockHashAt(h)
		got, ok2 := a2.BlockHashAt(h)
		return ok1 && ok2 && want == got
	})
}

// TestRestartVerifiesAtMostOneInterval: the store checkpoint follows the
// snapshot cadence by height, so a node killed every 3 blocks re-checks the
// signatures of at most those 3 blocks on each restart, however long its
// chain has grown, and after a clean Close it re-checks none.
func TestRestartVerifiesAtMostOneInterval(t *testing.T) {
	const snapshotEvery, perLife, target = 4, 3, 200
	epoch := time.Unix(1700000000, 0)
	dir := t.TempDir()
	now := epoch
	// start opens the store and a node on it with its clock where the last
	// life's stopped, and returns how many blocks the Open signature-checked.
	start := func() (*syncTestNode, uint64) {
		t.Helper()
		reg := telemetry.NewRegistry()
		st, err := store.Open(dir, store.Options{Sync: store.SyncAlways, Metrics: store.NewMetrics(reg)})
		if err != nil {
			t.Fatal(err)
		}
		clock := sim.NewVClock(now)
		n := newSyncTestNode(t, newFakeNet(), "a", 0, epoch, func(cfg *Config) {
			cfg.Store = st
			cfg.SnapshotEvery = snapshotEvery
			cfg.Clock = clock
		})
		n.clock = clock
		if err := n.StoreErr(); err != nil {
			t.Fatalf("replay: %v", err)
		}
		return n, counter(reg, "store.recovery.verified_blocks")
	}

	var height uint64
	for height < target {
		n, verified := start()
		if got := n.Height(); got != height {
			t.Fatalf("restart recovered height %d, want %d", got, height)
		}
		if verified > perLife {
			t.Fatalf("restart at height %d verified %d blocks, want at most %d", height, verified, perLife)
		}
		n.mineBlocks(t, perLife)
		height, now = n.Height(), n.clock.Now()
		if err := n.Kill(); err != nil || n.StoreErr() != nil {
			t.Fatalf("kill: %v, store: %v", err, n.StoreErr())
		}
	}

	n, _ := start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n, verified := start(); verified != 0 || n.Height() != height {
		t.Fatalf("restart after a clean close: height %d with %d blocks verified, want %d with 0", n.Height(), verified, height)
	}
}

// TestRestartReloadsChainAndData checks the clean-shutdown path: chain
// height, block hashes and stored data items all survive a restart.
func TestRestartReloadsChainAndData(t *testing.T) {
	idents, accounts := testRoster(1)
	epoch := time.Now()
	dir := t.TempDir()

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := startNodeWithStore(t, idents[0], accounts, epoch, time.Second, st)
	content := []byte("durable air-quality reading")
	it, err := a.Publish(content, "AirQuality/PM2.5", "lab")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 30*time.Second, "item mined", func() bool {
		return a.HasItemOnChain(it.ID) && a.Height() >= 2
	})
	height := a.Height()
	tipHash, _ := a.BlockHashAt(height)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2 := startNodeWithStore(t, idents[0], accounts, epoch, time.Second, st2)
	if h := a2.Height(); h < height {
		t.Fatalf("restarted height %d, want >= %d", h, height)
	}
	if got, ok := a2.BlockHashAt(height); !ok || got != tipHash {
		t.Fatal("tip hash not preserved across restart")
	}
	if !a2.HasItemOnChain(it.ID) {
		t.Fatal("on-chain item lost across restart")
	}
	if !a2.HasData(it.ID) {
		t.Fatal("data item content lost across restart")
	}
	var id meta.DataID = it.ID
	if got, ok := a2.store.AppendData(nil, id); !ok || string(got) != string(content) {
		t.Fatal("data content mismatch across restart")
	}
}
