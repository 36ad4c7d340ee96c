package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/geo"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/repair"
	"repro/internal/wire"
)

// freshObserver builds a fresh engine over the cluster's roster, clock and
// genesis — the receiving side of a snapshot bootstrap.
func freshObserver(t testing.TB, c *testCluster) *Engine {
	t.Helper()
	topo := netsim.NewTopology(make([]geo.Point, len(c.accounts)), 1)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	e, err := New(Config{
		Accounts:         c.accounts,
		Self:             0,
		PoS:              pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		Genesis:          block.Genesis(42),
		Now:              func() time.Duration { return c.now },
		ValidateClaims:   true,
		Topology:         func() *netsim.Topology { return topo },
		Planner:          alloc.NewPlanner(1),
		BlockPlanner:     blockPlanner,
		StorageCapacity:  250,
		SnapshotInterval: 4,
	})
	if err != nil {
		t.Fatalf("observer engine: %v", err)
	}
	return e
}

// addItem signs a fresh item and hands it to every engine, as gossip would.
func (c *testCluster) addItem(t testing.TB, producer int, content string) *meta.Item {
	t.Helper()
	it := c.item(producer, content)
	for i, e := range c.engines {
		if !e.AddMetadata(it) {
			t.Fatalf("engine %d rejected item %q", i, content)
		}
	}
	return it
}

// TestSnapshotCodecRoundTrip pins the deterministic snapshot encoding:
// decode(encode(s)) re-encodes to the identical bytes and content hash, and
// truncated or padded inputs are rejected without panicking.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
	for r := 0; r < 12; r++ {
		c.addItem(t, r%3, fmt.Sprintf("codec item %d", r))
		c.mineNext(t)
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot after 12 blocks at interval 4")
	}
	if len(snap.InChain) == 0 || len(snap.LiveItems) == 0 {
		t.Fatal("snapshot carries no item state; round trip would be vacuous")
	}
	blob := snap.Encode()
	dec, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec.Encode(), blob) {
		t.Fatal("re-encoded snapshot differs from original bytes")
	}
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := DecodeSnapshot(blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	padded := append(append([]byte(nil), blob...), 0)
	if _, err := DecodeSnapshot(padded); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// A wide roster with nothing stored yet: five one-byte varints a node
	// is all the roster-indexed lists take, and the decoder's count bound
	// must not ask for more.
	const n = 1000
	wide := &StateSnapshot{
		Block:       block.Genesis(1),
		Ledger:      pos.LedgerState{Mined: make([]uint64, n), Stored: make([]uint64, n)},
		DataLive:    make([]int, n),
		BlockBodies: make([]int, n),
		RecentDepth: make([]int, n),
	}
	blob = wide.Encode()
	if dec, err = DecodeSnapshot(blob); err != nil || !bytes.Equal(dec.Encode(), blob) {
		t.Fatalf("%d-node snapshot of %d bytes: decode error %v", n, len(blob), err)
	}
}

// TestDecodeSnapshotRefusesVersion3: a version-3 snapshot of the same state
// carried a fixed-width rental per node after the stored counts and a
// float64 stake scale after the applied height, 8n + 8 bytes that version 4
// dropped. DecodeSnapshot refuses it as a bad snapshot rather than misread
// the rentals as the view's counts.
func TestDecodeSnapshotRefusesVersion3(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
	for r := 0; r < 8; r++ {
		c.addItem(t, r%3, fmt.Sprintf("v3 item %d", r))
		c.mineNext(t)
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot after 8 blocks at interval 4")
	}
	v4 := snap.Encode()
	// The ledger's head: everything up to and including the stored counts.
	head := binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), SnapshotVersion)
	head = binary.AppendUvarint(head, snap.Height)
	head = wire.AppendBytes(head, snap.Block.Encode())
	head = binary.AppendUvarint(head, uint64(len(snap.Ledger.Mined)))
	for _, v := range append(append([]uint64(nil), snap.Ledger.Mined...), snap.Ledger.Stored...) {
		head = binary.AppendUvarint(head, v)
	}
	applied := binary.AppendUvarint(nil, snap.Ledger.Applied)
	if !bytes.HasPrefix(v4, append(head, applied...)) {
		t.Fatal("the version-4 layout is not the one this test splices")
	}
	v3 := binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), 3)
	v3 = append(v3, head[len(v3):]...)
	v3 = append(v3, make([]byte, 8*len(snap.Ledger.Mined))...)
	v3 = wire.AppendFloat64(append(v3, applied...), 1)
	v3 = append(v3, v4[len(head)+len(applied):]...)
	if n := len(snap.Ledger.Mined); len(v3) != len(v4)+8*n+8 {
		t.Fatalf("version 3 is %d bytes, version 4 %d: want 8n + 8 = %d more", len(v3), len(v4), 8*n+8)
	}
	if _, err := DecodeSnapshot(v3); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("version-3 snapshot: err = %v, want ErrBadSnapshot for its version", err)
	}
}

// TestPrunedEngineMatchesFull is the issue's differential acceptance test: a
// pruned replica and a full replica fed the same blocks end with
// bit-identical tips, headers and ledgers, while the pruned replica's body
// window stays O(PruneDepth).
func TestPrunedEngineMatchesFull(t *testing.T) {
	const (
		snapEvery = 4
		depth     = 8
		rounds    = 64
	)
	var pruneCalls, prunedBodies int
	var lastHorizon uint64
	c := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.SnapshotInterval = snapEvery
		if i == 0 {
			cfg.CheckpointInterval = depth
			cfg.PruneDepth = depth
			cfg.OnPrune = func(horizon uint64, n int) {
				pruneCalls++
				prunedBodies += n
				lastHorizon = horizon
			}
		}
	})
	var items []*meta.Item
	for r := 0; r < rounds; r++ {
		if r%3 == 0 {
			items = append(items, c.addItem(t, r%len(c.engines), fmt.Sprintf("diff item %d", r)))
		}
		c.mineNext(t)
	}
	pruned, full := c.engines[0], c.engines[1]

	if pruned.Chain().BodyBase() == 0 || pruneCalls == 0 {
		t.Fatalf("pruning never fired: base=%d calls=%d", pruned.Chain().BodyBase(), pruneCalls)
	}
	if got := pruned.Chain().BodyBase(); got != lastHorizon {
		t.Fatalf("body base %d does not match last reported horizon %d", got, lastHorizon)
	}
	if prunedBodies != int(pruned.Chain().BodyBase()) {
		t.Fatalf("OnPrune reported %d bodies total, body base is %d", prunedBodies, pruned.Chain().BodyBase())
	}

	// Bit-identical consensus state despite the missing bodies.
	if pruned.Height() != full.Height() {
		t.Fatalf("heights diverge: %d vs %d", pruned.Height(), full.Height())
	}
	if pruned.Tip().Hash != full.Tip().Hash {
		t.Fatal("tips diverge")
	}
	for h := uint64(0); h <= pruned.Height(); h++ {
		hdr, ok := pruned.Chain().HeaderAt(h)
		if !ok {
			t.Fatalf("pruned replica lost header %d", h)
		}
		if want := full.Chain().At(h).Hash; hdr.Hash != want {
			t.Fatalf("header %d hash diverges", h)
		}
	}
	if !reflect.DeepEqual(pruned.Ledger().ExportState(), full.Ledger().ExportState()) {
		t.Fatal("ledgers diverge between pruned and full replicas")
	}
	for _, it := range items {
		if !pruned.OnChain(it.ID) || !full.OnChain(it.ID) {
			t.Fatalf("item %s lost", it.ID.Short())
		}
	}

	// Bounded footprint: the window holds at most tip-horizon+1 bodies, and
	// the horizon trails the tip by at most depth + one checkpoint interval
	// + one snapshot interval of slack — O(PruneDepth), not O(height).
	if max := depth + depth + snapEvery + 1; pruned.Chain().BodyCount() > max {
		t.Fatalf("body window %d exceeds O(PruneDepth) bound %d", pruned.Chain().BodyCount(), max)
	}

	// Pruned heights answer as headers, not bodies.
	base := pruned.Chain().BodyBase()
	if b := pruned.Chain().At(base - 1); b != nil {
		t.Fatal("pruned height still returns a body")
	}
	if _, err := pruned.Chain().Body(base - 1); !errors.Is(err, chain.ErrPrunedBody) {
		t.Fatalf("Body below the window: err = %v, want ErrPrunedBody", err)
	}
	if g, err := pruned.Chain().Body(0); err != nil || g.Index != 0 {
		t.Fatalf("genesis must stay reachable: %v", err)
	}

	// The pruned replica keeps mining valid blocks the full replica accepts.
	for r := 0; r < depth; r++ {
		c.mineNext(t)
	}
	if pruned.Tip().Hash != full.Tip().Hash {
		t.Fatal("tips diverge after continued mining")
	}
}

// TestBootstrapFromSnapshotEquivalence bootstraps a fresh engine from an
// encoded snapshot, feeds it only the live suffix, and requires it to reach
// a state bit-identical to a replica that replayed the whole chain.
func TestBootstrapFromSnapshotEquivalence(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
	var mined []*block.Block
	var items []*meta.Item
	for r := 0; r < 19; r++ {
		if r%2 == 0 {
			items = append(items, c.addItem(t, r%len(c.engines), fmt.Sprintf("boot item %d", r)))
		}
		mined = append(mined, c.mineNext(t))
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	dec, err := DecodeSnapshot(snap.Encode()) // wire round trip
	if err != nil {
		t.Fatal(err)
	}

	fresh := freshObserver(t, c)
	if err := fresh.BootstrapFromSnapshot(dec); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if err := fresh.BootstrapFromSnapshot(dec); err == nil {
		t.Fatal("second bootstrap into a non-fresh engine must be refused")
	}
	if err := c.engines[1].BootstrapFromSnapshot(dec); err == nil {
		t.Fatal("bootstrap into an engine with history must be refused")
	}

	// Below the anchor only genesis is known; the spine starts at the anchor.
	if got := fresh.Chain().HeaderBase(); got != snap.Height {
		t.Fatalf("header base %d, want anchor %d", got, snap.Height)
	}
	if _, ok := fresh.Chain().HeaderAt(snap.Height - 1); ok {
		t.Fatal("pre-anchor header should be unknown before backfill")
	}
	if _, err := fresh.Chain().Body(1); err == nil {
		t.Fatal("pre-anchor body should be unavailable")
	}

	// Live suffix only — no replay from genesis.
	for _, b := range mined {
		if b.Index <= snap.Height {
			continue
		}
		if _, err := fresh.ReceiveBlock(b); err != nil {
			t.Fatalf("suffix block %d: %v", b.Index, err)
		}
	}
	ref := c.engines[0]
	if fresh.Height() != ref.Height() || fresh.Tip().Hash != ref.Tip().Hash {
		t.Fatalf("bootstrapped tip diverges: %d vs %d", fresh.Height(), ref.Height())
	}
	if !reflect.DeepEqual(fresh.Ledger().ExportState(), ref.Ledger().ExportState()) {
		t.Fatal("bootstrapped ledger diverges from replayed ledger")
	}
	for _, it := range items {
		if !fresh.OnChain(it.ID) {
			t.Fatalf("bootstrapped replica lost item %s", it.ID.Short())
		}
	}

	// Backfilling the missing spine from the reference replica restores
	// header coverage down to height 1.
	spine := ref.Chain().Headers(1, snap.Height-1)
	if err := fresh.Chain().BackfillSpine(spine); err != nil {
		t.Fatalf("backfill: %v", err)
	}
	for h := uint64(1); h < snap.Height; h++ {
		hdr, ok := fresh.Chain().HeaderAt(h)
		if !ok || hdr.Hash != ref.Chain().At(h).Hash {
			t.Fatalf("backfilled header %d wrong", h)
		}
	}

	// The bootstrapped replica participates in consensus from here on.
	c.engines = append(c.engines, fresh)
	c.events = append(c.events, nil)
	for r := 0; r < 5; r++ {
		c.mineNext(t)
	}
	if fresh.Tip().Hash != ref.Tip().Hash {
		t.Fatal("bootstrapped replica diverges under continued mining")
	}
}

// TestBootstrapRejectsCorruptSnapshots checks the semantic validation gate:
// a snapshot whose ledger, roster shape or anchor is inconsistent must not
// install.
func TestBootstrapRejectsCorruptSnapshots(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
	for r := 0; r < 9; r++ {
		c.mineNext(t)
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	cases := []struct {
		name   string
		mutate func(s *StateSnapshot)
	}{
		{"nil anchor", func(s *StateSnapshot) { s.Block = nil }},
		{"height mismatch", func(s *StateSnapshot) { s.Height++ }},
		{"ledger not applied to height", func(s *StateSnapshot) { s.Ledger.Applied-- }},
		{"roster shrunk", func(s *StateSnapshot) { s.DataLive = s.DataLive[:1] }},
		{"counts disagree with assignments", func(s *StateSnapshot) { s.DataLive[0]++ }},
		{"assignment outside the roster", func(s *StateSnapshot) {
			s.Assignments = append(s.Assignments, repair.Assignment{ID: c.item(0, "off roster").ID, Nodes: []int{3}})
		}},
		{"live item off-chain", func(s *StateSnapshot) {
			s.InChain = nil
			if len(s.LiveItems) == 0 {
				it := c.item(0, "phantom live item")
				s.LiveItems = []*meta.Item{it}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := DecodeSnapshot(snap.Encode())
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(bad)
			fresh := freshObserver(t, c)
			if err := fresh.BootstrapFromSnapshot(bad); err == nil {
				t.Fatal("corrupt snapshot installed")
			}
			if fresh.Height() != 0 {
				t.Fatal("failed bootstrap left state behind")
			}
		})
	}
}

// BenchmarkSnapshotBootstrap compares standing up a replica at height N via
// snapshot install against full-chain replay — the speedup that justifies
// the §14 bootstrap protocol.
func BenchmarkSnapshotBootstrap(b *testing.B) {
	const height = 1024
	c := newTestCluster(b, 1, func(i int, cfg *Config) { cfg.SnapshotInterval = 64 })
	for r := 0; r < height; r++ {
		c.mineNext(b)
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok {
		b.Fatal("no exportable snapshot")
	}
	blob := snap.Encode()
	blocks := c.engines[0].Chain().Blocks()

	b.Run("snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dec, err := DecodeSnapshot(blob)
			if err != nil {
				b.Fatal(err)
			}
			e := freshObserver(b, c)
			if err := e.BootstrapFromSnapshot(dec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := freshObserver(b, c)
			if _, ok := e.AdoptSuffix(blocks[1:]); !ok {
				b.Fatal("replay rejected")
			}
		}
	})
}
