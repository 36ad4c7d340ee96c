package livenode

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/sim"
	"repro/internal/store"
)

// The store hands back what the disk holds and the pin; the node's replay
// decides what rejoins the chain (DESIGN.md §7 "Crash recovery"). These
// tests write a data directory, restart a durable node on it and check the
// chain it stands on, the error it noted and what the next restart recovers.

var (
	restartEpoch = time.Unix(1700000000, 0)
	// restartNow is a clock after every block the tests write.
	restartNow = restartEpoch.Add(24 * time.Hour)
)

// claimedChain builds n blocks on the test genesis, each validly claimed by
// roster node 0 on a scratch ledger that follows the chain and each packing
// one item signed by roster node 1; salt tells chains apart. mutate, when
// set, may change block i's item after it is signed and before the block is
// sealed over it, so hash and claim hold and only the content check can
// refuse the block.
func claimedChain(t testing.TB, n int, salt string, mutate func(i int, it *meta.Item)) []*block.Block {
	t.Helper()
	idents, accounts := testRoster(3)
	params := pos.Params{M: pos.DefaultM, T0: 60 * time.Second}
	led := pos.NewLedger(accounts)
	prev := block.Genesis(42)
	var out []*block.Block
	for i := 1; i <= n; i++ {
		won, b := params.Round(prev, accounts[0], led)
		it := &meta.Item{ID: meta.HashData([]byte(fmt.Sprintf("%s item %d", salt, i))), Type: "T", Produced: prev.Timestamp, DataSize: i}
		it.Sign(idents[1])
		if mutate != nil {
			mutate(i, it)
		}
		blk := block.NewBuilder(prev, accounts[0], prev.Timestamp+time.Duration(won)*time.Second, won, b).AddItem(it).Seal()
		if err := led.ApplyBlock(blk); err != nil {
			t.Fatal(err)
		}
		out = append(out, blk)
		prev = blk
	}
	return out
}

// writeWAL persists blocks into a fresh store at dir, with no checkpoint.
func writeWAL(t testing.TB, dir string, blocks []*block.Block) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Sync: store.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := st.AppendBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// restartOn opens the store at dir and starts roster node 0 on it, its clock
// at now: the block path refuses a block stamped in its future.
func restartOn(t testing.TB, dir string, opts store.Options, now time.Time, mutate func(cfg *Config)) *syncTestNode {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	clock := sim.NewVClock(now)
	n := newSyncTestNode(t, newFakeNet(), "a", 0, restartEpoch, func(cfg *Config) {
		cfg.Store = st
		cfg.Clock = clock
		if mutate != nil {
			mutate(cfg)
		}
	})
	n.clock = clock
	return n
}

// refused reports whether err is the replay's refusal of block index.
func refused(err error, index uint64) bool {
	return err != nil && strings.Contains(err.Error(), fmt.Sprintf("recovered block %d refused", index))
}

// recoveredBlocks opens the store at dir and returns what it recovers.
func recoveredBlocks(t testing.TB, dir string) []*block.Block {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return st.RecoveredBlocks()
}

// TestRestartReplayCutsAtFirstRefusedBlock: a block mid-WAL whose CRC, hash
// and claim hold but whose item signature does not is refused by the
// restarted node's block path, with or without a torn tail behind it, and so
// is a block whose index continues the WAL but whose link does not (a stale
// segment a crash mid-Reset left, under the old chain's checkpoint). The
// node stands on the block before it, StoreErr names the refused block, the
// WAL is cut there, and a second restart recovers the same prefix cleanly.
func TestRestartReplayCutsAtFirstRefusedBlock(t *testing.T) {
	forged := claimedChain(t, 8, "main", func(i int, it *meta.Item) {
		if i == 6 {
			it.Signature[9] ^= 1
		}
	})
	if forged[5].VerifySelf() == nil {
		t.Fatal("the forged block verifies")
	}
	old := claimedChain(t, 6, "old", nil)
	fork := claimedChain(t, 3, "fork", nil)
	stale := append(fork[:3:3], old[3:]...)

	for _, tc := range []struct {
		name    string
		blocks  []*block.Block
		torn    bool
		man     *store.Manifest
		keep    []*block.Block
		refused uint64
	}{
		{"forged signature", forged, false, nil, forged[:5], 6},
		{"forged signature, torn tail", forged, true, nil, forged[:5], 6},
		{"stale link", stale, false, &store.Manifest{Height: 6, Head: old[5].Hash.String()}, fork, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, tc.blocks)
			if tc.torn {
				seg := filepath.Join(dir, "wal3-00000000000000000001.log")
				st, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, st.Size()-5); err != nil {
					t.Fatal(err)
				}
			}
			if tc.man != nil {
				if err := store.SaveManifest(filepath.Join(dir, "manifest.json"), *tc.man); err != nil {
					t.Fatal(err)
				}
			}
			want := tc.keep[len(tc.keep)-1]
			for life := 1; life <= 2; life++ {
				n := restartOn(t, dir, store.Options{Sync: store.SyncAlways}, restartNow, nil)
				if n.Height() != want.Index || n.Tip().Hash != want.Hash {
					t.Fatalf("life %d: the node stands at height %d, want block %d", life, n.Height(), want.Index)
				}
				err := n.StoreErr()
				if life == 1 && !refused(err, tc.refused) {
					t.Fatalf("life 1: StoreErr %v, want the refusal of block %d", err, tc.refused)
				}
				if life == 2 && err != nil {
					t.Fatalf("life 2: StoreErr %v after the cut", err)
				}
				if err := n.Kill(); err != nil {
					t.Fatal(err)
				}
				if got := recoveredBlocks(t, dir); len(got) != len(tc.keep) || got[len(got)-1].Hash != want.Hash {
					t.Fatalf("life %d: the WAL holds %d blocks, want the %d kept", life, len(got), len(tc.keep))
				}
			}
		})
	}
}

// TestRestartReplayTrustsOnlyThePin: a checkpoint whose head the block at
// its height carries vouches for the blocks at or below it, so a block
// tampered after signing rejoins the chain unchecked, whether the
// checkpoint sits at it or above it; the blocks above the pin are checked in
// full. A checkpoint naming another head, or none, vouches for nothing and
// the tampered block is refused; so does one whose head is right but whose
// blocks below stop linking at the tampered block.
func TestRestartReplayTrustsOnlyThePin(t *testing.T) {
	tampered := claimedChain(t, 3, "main", func(i int, it *meta.Item) {
		if i == 2 {
			it.Properties = "tampered-after-signing"
		}
	})
	if tampered[1].VerifySelf() == nil {
		t.Fatal("the tampered block verifies")
	}
	clean := claimedChain(t, 3, "main", nil)
	spliced := []*block.Block{clean[0], tampered[1], clean[2]} // block 3 links to the clean block 2
	other := claimedChain(t, 2, "other", nil)[1]
	for _, tc := range []struct {
		name   string
		wal    []*block.Block
		man    store.Manifest
		height uint64
	}{
		{"checkpoint at the block", tampered, store.Manifest{Height: 2, Head: tampered[1].Hash.String()}, 3},
		{"checkpoint above it", tampered, store.Manifest{Height: 3, Head: tampered[2].Hash.String()}, 3},
		{"checkpoint naming another head", tampered, store.Manifest{Height: 2, Head: other.Hash.String()}, 1},
		{"no checkpoint", tampered, store.Manifest{}, 1},
		{"checkpoint above a broken link", spliced, store.Manifest{Height: 3, Head: clean[2].Hash.String()}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWAL(t, dir, tc.wal)
			if err := store.SaveManifest(filepath.Join(dir, "manifest.json"), tc.man); err != nil {
				t.Fatal(err)
			}
			n := restartOn(t, dir, store.Options{}, restartNow, nil)
			if n.Height() != tc.height || n.Tip().Hash != tc.wal[tc.height-1].Hash {
				t.Fatalf("the node stands at height %d, want %d", n.Height(), tc.height)
			}
			if err := n.StoreErr(); refused(err, 2) != (tc.height < 3) || tc.height == 3 && err != nil {
				t.Fatalf("StoreErr %v", err)
			}
		})
	}
}

// prunedDataDir runs a pruned durable node for 30 blocks, snapshots and
// checkpoints every 8, and closes it. It returns the directory and the
// persisted snapshot's height and anchor hash; the WAL it leaves starts
// above height 1, so its blocks cannot be replayed from genesis.
func prunedDataDir(t *testing.T) (dir string, anchor uint64, anchorHash block.Hash) {
	t.Helper()
	dir = t.TempDir()
	st, err := store.Open(dir, prunedOpts)
	if err != nil {
		t.Fatal(err)
	}
	n := newSyncTestNode(t, newFakeNet(), "p", 0, restartEpoch, func(cfg *Config) {
		cfg.Store = st
		pruned(cfg)
	})
	n.mineBlocks(t, 30)
	if n.clock.Now().After(restartNow) {
		t.Fatal("the blocks outrun the restart clock")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := store.LoadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil || man.SnapshotHeight == 0 {
		t.Fatalf("no snapshot persisted: %+v, %v", man, err)
	}
	anchorHash, _ = n.BlockHashAt(man.SnapshotHeight)
	if got := recoveredBlocks(t, dir); len(got) == 0 || got[0].Index == 1 {
		t.Fatal("the WAL was not compacted")
	}
	return dir, man.SnapshotHeight, anchorHash
}

func tamper(path string) error { return os.WriteFile(path, []byte("tampered"), 0o644) }

var prunedOpts = store.Options{Sync: store.SyncAlways, SegmentBlocks: 4}

func pruned(cfg *Config) {
	cfg.SnapshotEvery = 8
	cfg.PruneDepth = 4
}

// TestRestartReplayWithoutSnapshotStartsFresh: a pruned node whose
// snapshot blob is missing, or whose blob or spine fails its manifest hash,
// holds WAL blocks that start mid-chain. The replay refuses the first of
// them, so the node starts at height 0 with an empty WAL, and the chain it
// then mines is what the next restart recovers.
func TestRestartReplayWithoutSnapshotStartsFresh(t *testing.T) {
	for _, tc := range []struct {
		name    string
		file    string // glob of the one file to corrupt
		corrupt func(path string) error
	}{
		{"missing snapshot blob", "snapshot*.bin", os.Remove},
		{"snapshot hash mismatch", "snapshot*.bin", tamper},
		{"spine hash mismatch", "spine-*.bin", tamper},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _, _ := prunedDataDir(t)
			first := recoveredBlocks(t, dir)[0].Index
			files, err := filepath.Glob(filepath.Join(dir, tc.file))
			if err != nil || len(files) != 1 {
				t.Fatalf("%d files match %s: %v", len(files), tc.file, err)
			}
			if err := tc.corrupt(files[0]); err != nil {
				t.Fatal(err)
			}
			n := restartOn(t, dir, prunedOpts, restartNow, pruned)
			if n.Height() != 0 || !refused(n.StoreErr(), first) {
				t.Fatalf("the node stands at height %d (StoreErr %v), want 0 and the refusal of block %d", n.Height(), n.StoreErr(), first)
			}
			if err := n.Kill(); err != nil {
				t.Fatal(err)
			}
			if got := recoveredBlocks(t, dir); len(got) != 0 {
				t.Fatalf("the WAL still holds %d unreachable blocks", len(got))
			}
			n = restartOn(t, dir, prunedOpts, restartNow, pruned)
			if n.Height() != 0 || n.StoreErr() != nil {
				t.Fatalf("second restart: height %d, StoreErr %v", n.Height(), n.StoreErr())
			}
			n.mineBlocks(t, 2)
			tip, now := n.Tip().Hash, n.clock.Now()
			if err := n.Kill(); err != nil || n.StoreErr() != nil {
				t.Fatalf("kill: %v, store: %v", err, n.StoreErr())
			}
			if got := recoveredBlocks(t, dir); len(got) != 2 || got[0].Index != 1 || got[1].Hash != tip {
				t.Fatalf("the WAL holds %d blocks, want the fresh chain's 2", len(got))
			}
			if n = restartOn(t, dir, prunedOpts, now, pruned); n.Height() != 2 || n.Tip().Hash != tip {
				t.Fatalf("third restart: height %d, want the fresh chain's 2 (%v)", n.Height(), n.StoreErr())
			}
		})
	}
}

// TestRestartReplayAcrossGapStandsOnAnchor: when the WAL's first block lies
// above the block after the snapshot anchor, the snapshot installs, the
// replay refuses the first block, and the node stands on the anchor. The
// cut empties the WAL and keeps the snapshot, so the next restart stands on
// the anchor again, with nothing to refuse.
func TestRestartReplayAcrossGapStandsOnAnchor(t *testing.T) {
	dir, anchor, anchorHash := prunedDataDir(t)
	segs, err := filepath.Glob(filepath.Join(dir, "wal3-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		start, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(seg), "wal3-"), ".log"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if start <= anchor+1 {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := recoveredBlocks(t, dir)
	if len(got) == 0 || got[0].Index <= anchor+1 {
		t.Fatalf("no gap above anchor %d: %d blocks left", anchor, len(got))
	}
	for life := 1; life <= 2; life++ {
		n := restartOn(t, dir, prunedOpts, restartNow, pruned)
		if n.Height() != anchor || n.Tip().Hash != anchorHash {
			t.Fatalf("life %d: the node stands at height %d, want anchor %d", life, n.Height(), anchor)
		}
		if err := n.StoreErr(); (life == 1) != refused(err, got[0].Index) || life == 2 && err != nil {
			t.Fatalf("life %d: StoreErr %v", life, err)
		}
		if err := n.Kill(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(dir, prunedOpts)
		if err != nil {
			t.Fatal(err)
		}
		_, _, h, ok := st.RecoveredSnapshot()
		blocks := len(st.RecoveredBlocks())
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if !ok || h != anchor || blocks != 0 {
			t.Fatalf("life %d: snapshot %v at %d and %d WAL blocks, want the anchor's and none", life, ok, h, blocks)
		}
	}
}
