package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
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
	if len(snap.LiveItems) == 0 {
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

	// A wide roster with nothing stored yet: four one-byte varints a node
	// is all the roster-indexed lists take, and the decoder's count bound
	// must not ask for more.
	const n = 1000
	wide := &StateSnapshot{
		Block:       block.Genesis(1),
		Ledger:      pos.LedgerState{Mined: make([]uint64, n), Stored: make([]uint64, n)},
		BlockBodies: make([]int, n),
		RecentDepth: make([]int, n),
	}
	blob = wide.Encode()
	if dec, err = DecodeSnapshot(blob); err != nil || !bytes.Equal(dec.Encode(), blob) {
		t.Fatalf("%d-node snapshot of %d bytes: decode error %v", n, len(blob), err)
	}
}

// expiryScenario mines four blocks on a 4-node repair cluster and feeds them
// to an observer whose expiry tick reads 2 h ahead of the miners' clock, as
// a node with a fast clock would. The observer's snapshot at height 4 holds
// an item that expired before the snapshot (a), a re-announced item with a
// pending expiry (b), an item that never expires (c), and an item
// re-announced after the observer had expired it (d).
func expiryScenario(t testing.TB) (c *testCluster, obs *Engine, a, b, cc, d *meta.Item) {
	t.Helper()
	status := make([]repair.Status, 4)
	c = repairCluster(t, 4, status)
	obs = freshObserver(t, c)
	valid := func(content string, validFor time.Duration) *meta.Item {
		it := c.item(0, content)
		it.ValidFor = validFor
		it.Sign(c.idents[0])
		for _, e := range c.engines {
			e.AddMetadata(it)
		}
		return it
	}
	a, b, cc, d = valid("a", 30*time.Minute), valid("b", 100*time.Hour), valid("c", 0), valid("d", time.Hour)
	for h := 1; h <= 4; h++ {
		if h == 2 { // a provider of d dies: the miners re-announce what it held
			status[c.engines[0].LiveItem(d.ID).StoringNodes[0]] = repair.Dead
		}
		if _, err := obs.ReceiveBlock(c.mineNextRes(t).Block); err != nil {
			t.Fatalf("observer, block %d: %v", h, err)
		}
		obs.View().Index(c.now + 2*time.Hour) // the fast clock's tick
	}
	if got := obs.LiveItem(d.ID); got == d || got == nil {
		t.Fatal("d was not re-announced")
	}
	return c, obs, a, b, cc, d
}

// TestSnapshotRoundTripKeepsItemTable runs the item table through export,
// Encode, DecodeSnapshot and BootstrapFromSnapshot: the restored index
// renders the exporter's, and LiveItem and OnChain answer alike for every
// ID, with the assignments, counts and pending expiries derived from the
// items alone.
func TestSnapshotRoundTripKeepsItemTable(t *testing.T) {
	c, obs, a, b, cc, d := expiryScenario(t)
	snap, ok := obs.ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	exporter := obs.snaps[len(obs.snaps)-1]
	if exporter.height != snap.Height {
		t.Fatalf("exported height %d, newest snapshot %d", snap.Height, exporter.height)
	}
	want := exporter.view.items.Snapshot()
	for _, line := range []string{
		"expired " + a.ID.String(),
		"expired " + d.ID.String(),
		"live " + cc.ID.String(),
		"expires " + b.ID.String(),
	} {
		if !strings.Contains(want, line) {
			t.Fatalf("scenario index lacks %q:\n%s", line, want)
		}
	}
	if exporter.view.items.Item(b.ID) == b {
		t.Fatal("b was not re-announced")
	}

	dec, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	fresh := freshObserver(t, c)
	if err := fresh.BootstrapFromSnapshot(dec); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if got := fresh.view.items.Snapshot(); got != want {
		t.Fatalf("restored index renders\n%s\nwant\n%s", got, want)
	}
	for i := range c.accounts {
		if got, want := fresh.view.items.Count(i), exporter.view.items.Count(i); got != want {
			t.Fatalf("node %d: restored count %d, want %d", i, got, want)
		}
	}
	for _, id := range []meta.DataID{a.ID, b.ID, cc.ID, d.ID, c.item(0, "never on chain").ID} {
		got, want := fresh.LiveItem(id), exporter.view.items.Item(id)
		if !reflect.DeepEqual(got, want) || fresh.OnChain(id) != (want != nil) {
			t.Fatalf("item %s: restored %v (on chain %v), exporter %v", id.Short(), got, fresh.OnChain(id), want)
		}
	}
}

// TestDecodeSnapshotRefusesVersion4: a version-4 snapshot of the same state
// also wrote each node's live item count after the applied height, and the
// assignments, pending expiries and on-chain IDs beside the expired IDs and
// the items, all of which version 5 derives from the items. DecodeSnapshot
// refuses it as a bad snapshot rather than misread the counts as the view's
// block counts.
func TestDecodeSnapshotRefusesVersion4(t *testing.T) {
	_, obs, _, _, _, _ := expiryScenario(t)
	snap, ok := obs.ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	idx := obs.snaps[len(obs.snaps)-1].view.items
	v5 := snap.Encode()
	// The ledger's head: everything up to and including the applied height.
	head := binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), SnapshotVersion)
	head = binary.AppendUvarint(head, snap.Height)
	head = wire.AppendBytes(head, snap.Block.Encode())
	head = binary.AppendUvarint(head, uint64(len(snap.Ledger.Mined)))
	for _, v := range append(append([]uint64(nil), snap.Ledger.Mined...), snap.Ledger.Stored...) {
		head = binary.AppendUvarint(head, v)
	}
	head = binary.AppendUvarint(head, snap.Ledger.Applied)
	if !bytes.HasPrefix(v5, head) {
		t.Fatal("the version-5 layout is not the one this test splices")
	}
	ids := func(w []byte, ids []meta.DataID) []byte {
		w = binary.AppendUvarint(w, uint64(len(ids)))
		for _, id := range ids {
			w = append(w, id[:]...)
		}
		return w
	}
	v4 := binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), 4)
	v4 = append(v4, head[len(v4):]...)
	for i := range snap.BlockBodies {
		v4 = binary.AppendUvarint(v4, uint64(idx.Count(i)))
	}
	for _, n := range append(append([]int(nil), snap.BlockBodies...), snap.RecentDepth...) {
		v4 = binary.AppendUvarint(v4, uint64(n))
	}
	v4 = binary.AppendUvarint(v4, snap.ViewHeight)
	live := idx.Live()
	v4 = binary.AppendUvarint(v4, uint64(len(live)))
	var pending []*meta.Item
	for _, id := range live {
		v4 = wire.AppendInts(append(v4, id[:]...), idx.Providers(id))
		if it := idx.Item(id); it.ValidFor > 0 {
			pending = append(pending, it)
		}
	}
	slices.SortFunc(pending, func(x, y *meta.Item) int {
		return cmp.Or(cmp.Compare(x.ExpiresAt(), y.ExpiresAt()), compareID(x.ID, y.ID))
	})
	v4 = binary.AppendUvarint(v4, uint64(len(pending)))
	for _, it := range pending {
		v4 = append(binary.AppendUvarint(v4, uint64(it.ExpiresAt())), it.ID[:]...)
	}
	v4 = ids(v4, snap.Expired)
	v4 = ids(v4, idx.IDs())
	v4 = binary.AppendUvarint(v4, uint64(len(snap.LiveItems)))
	for _, it := range snap.LiveItems {
		v4 = it.AppendEncode(v4)
	}
	t.Logf("the same state: version 4 %d bytes, version 5 %d bytes", len(v4), len(v5))
	if len(v4) <= len(v5) {
		t.Fatalf("version 4 is %d bytes, version 5 %d: the dropped lists cost nothing", len(v4), len(v5))
	}
	if _, err := DecodeSnapshot(v4); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 4") {
		t.Fatalf("version-4 snapshot: err = %v, want ErrBadSnapshot for its version", err)
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
// a snapshot whose ledger, roster shape, anchor or item table is
// inconsistent must not install.
func TestBootstrapRejectsCorruptSnapshots(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
	for r := 0; r < 9; r++ {
		if r < 3 {
			c.addItem(t, r, fmt.Sprintf("corrupt item %d", r))
		}
		c.mineNext(t)
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok || len(snap.LiveItems) < 2 {
		t.Fatal("no exportable snapshot with two items")
	}
	offRoster := snap.LiveItems[0].Clone()
	offRoster.StoringNodes = []int{len(c.accounts)}
	cases := []struct {
		name   string
		mutate func(s *StateSnapshot)
	}{
		{"nil anchor", func(s *StateSnapshot) { s.Block = nil }},
		{"height mismatch", func(s *StateSnapshot) { s.Height++ }},
		{"ledger not applied to height", func(s *StateSnapshot) { s.Ledger.Applied-- }},
		{"roster shrunk", func(s *StateSnapshot) { s.BlockBodies = s.BlockBodies[:1] }},
		{"assignment outside the roster", func(s *StateSnapshot) { s.LiveItems[0] = offRoster }},
		{"unsorted IDs", func(s *StateSnapshot) {
			s.LiveItems[0], s.LiveItems[1] = s.LiveItems[1], s.LiveItems[0]
		}},
		{"duplicate IDs", func(s *StateSnapshot) { s.LiveItems[1] = s.LiveItems[0] }},
		{"unlisted expired ID", func(s *StateSnapshot) {
			s.Expired = append(s.Expired, c.item(0, "never on chain").ID)
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
			if err := fresh.BootstrapFromSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("corrupt snapshot: err = %v, want ErrBadSnapshot", err)
			}
			if fresh.Height() != 0 {
				t.Fatal("failed bootstrap left state behind")
			}
		})
	}
}

// TestChainRefusesWhatASnapshotCannotRestore: a validly claimed block whose
// item names a storing node outside the roster, or re-announces an on-chain
// item with another valid time, is refused by ReceiveBlock and AdoptSuffix
// alike. A snapshot taken while such an item is live could not install (a
// restore refuses the node) or would install another expiry (a restore
// reads the latest version's). The in-roster form of the same block is
// adopted, and the snapshot at its height installs.
func TestChainRefusesWhatASnapshotCannotRestore(t *testing.T) {
	c := newTestCluster(t, 3, func(i int, cfg *Config) { cfg.SnapshotInterval = 2 })
	a := c.addItem(t, 0, "a") // ValidFor 0: never expires
	c.mineNext(t)
	claimed := func(it *meta.Item) *block.Block {
		winner, r := c.nextRound(t)
		bld := block.NewBuilder(c.engines[0].Tip(), c.accounts[winner], c.now, r.T, r.B)
		bld.AddItem(it)
		return bld.Seal()
	}
	offRoster := c.item(1, "b")
	offRoster.StoringNodes = []int{0, 7}
	longer := c.engines[0].LiveItem(a.ID).Clone()
	longer.ValidFor = time.Hour
	longer.Sign(c.idents[0])
	for _, tc := range []struct {
		name string
		item *meta.Item
	}{
		{"storing node 7 of 3", offRoster},
		{"re-announced with another ValidFor", longer},
	} {
		b := claimed(tc.item)
		for i, e := range c.engines {
			if _, err := e.ReceiveBlock(b); err == nil {
				t.Fatalf("%s: engine %d adopted the block", tc.name, i)
			}
			if _, ok := e.AdoptSuffix([]*block.Block{b}); ok {
				t.Fatalf("%s: engine %d adopted the block as a suffix", tc.name, i)
			}
		}
	}

	inRoster := c.item(1, "b")
	inRoster.StoringNodes = []int{0, 2}
	b := claimed(inRoster)
	for i, e := range c.engines {
		if _, err := e.ReceiveBlock(b); err != nil {
			t.Fatalf("engine %d refused the in-roster block: %v", i, err)
		}
	}
	snap, ok := c.engines[0].ExportSnapshot()
	if !ok || snap.Height != b.Index {
		t.Fatalf("no snapshot at height %d", b.Index)
	}
	fresh := freshObserver(t, c)
	if err := fresh.BootstrapFromSnapshot(snap); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if got, want := fresh.view.items.Snapshot(), c.engines[0].view.items.Snapshot(); got != want {
		t.Fatalf("restored index renders\n%s\nwant\n%s", got, want)
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
