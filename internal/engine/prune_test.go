package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
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
	return clockedObserver(t, c, func() time.Duration { return c.now })
}

// clockedObserver is freshObserver reading its own clock.
func clockedObserver(t testing.TB, c *testCluster, now func() time.Duration) *Engine {
	t.Helper()
	topo := netsim.NewTopology(make([]geo.Point, len(c.accounts)), 1)
	blockPlanner := alloc.NewPlanner(1)
	blockPlanner.MinReplicas = 1
	e, err := New(Config{
		Accounts:         c.accounts,
		Self:             0,
		PoS:              pos.Params{M: pos.DefaultM, T0: 60 * time.Second},
		Genesis:          block.Genesis(42),
		Now:              now,
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

// expiryScenario mines four blocks on a 4-node repair cluster, the third
// sealed 40 min late, and feeds them to two observers that read their views
// after every block at their own clocks, as a node's timers do: fast, whose
// clock runs 2 h ahead of the miners', and steady, on the miners' clock.
// Block 3's timestamp expires a (valid 30 min); at height 4 the table holds
// b (valid 100 h), cc (never expires) and d (valid 1 h, re-announced at
// height 2 when one of its providers died). Read at its own clock, fast
// would have expired d as well.
func expiryScenario(t testing.TB) (c *testCluster, fast, steady *Engine, a, b, cc, d *meta.Item) {
	t.Helper()
	status := make([]repair.Status, 4)
	c = repairCluster(t, 4, status)
	fast = clockedObserver(t, c, func() time.Duration { return c.now + 2*time.Hour })
	steady = freshObserver(t, c)
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
		late := time.Duration(0)
		if h == 3 {
			late = 40 * time.Minute
		}
		blk := c.mineLate(t, late)
		for _, obs := range []*Engine{fast, steady} {
			if _, err := obs.ReceiveBlock(blk); err != nil {
				t.Fatalf("observer, block %d: %v", h, err)
			}
			readView(obs)
		}
	}
	if got := fast.LiveItem(d.ID); got == d || got == nil {
		t.Fatal("d was not re-announced")
	}
	if fast.OnChain(a.ID) {
		t.Fatal("a outlived the block that passed its valid time")
	}
	return c, fast, steady, a, b, cc, d
}

// readView reads e's view the way a node's timers do — the repair audit and
// gauges, a mining plan — at e's own clock.
func readView(e *Engine) {
	v := e.View()
	v.Index().Deficits(e.cfg.Now(), alloc.DefaultMinReplicas, nil)
	v.Index().Items(e.cfg.Self)
	v.NodeStates()
}

// sameSnapshots fails unless x and y hold the same periodic snapshots, each
// encoding to the same bytes.
func sameSnapshots(t *testing.T, x, y *Engine) {
	t.Helper()
	if len(x.snaps) == 0 || len(x.snaps) != len(y.snaps) {
		t.Fatalf("%d and %d snapshots held", len(x.snaps), len(y.snaps))
	}
	for k := range x.snaps {
		sx, sy := x.snaps[k], y.snaps[k]
		bx := exportSnapshot(sx, x.ch.At(sx.height)).Encode()
		by := exportSnapshot(sy, y.ch.At(sy.height)).Encode()
		if sx.height != sy.height || !bytes.Equal(bx, by) {
			t.Fatalf("snapshots at heights %d and %d encode differently (%d and %d bytes)", sx.height, sy.height, len(bx), len(by))
		}
	}
}

// TestSnapshotBytesIgnoreLocalClock: two replicas fed the same blocks
// encode byte-identical snapshots at every snapshot height, however their
// clocks and read schedules differ — the item table expires at block
// timestamps, so a snapshot is a function of the chain. The expiry
// scenario's fast observer reads 2 h ahead; in the random schedule one
// replica's clock drifts ahead by up to 8 h and reads its view zero to three
// times between blocks.
func TestSnapshotBytesIgnoreLocalClock(t *testing.T) {
	t.Run("expiry scenario", func(t *testing.T) {
		_, fast, steady, _, _, _, _ := expiryScenario(t)
		sameSnapshots(t, fast, steady)
	})
	t.Run("random schedule", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		c := newTestCluster(t, 3, nil)
		var drift time.Duration
		x := freshObserver(t, c)
		y := clockedObserver(t, c, func() time.Duration { return c.now + drift })
		lifetimes := []time.Duration{0, 5 * time.Minute, 20 * time.Minute, time.Hour}
		expired := 0
		for h := 1; h <= 48; h++ {
			if rng.Intn(3) > 0 {
				it := c.item(h%3, fmt.Sprintf("schedule item %d", h))
				it.ValidFor = lifetimes[rng.Intn(len(lifetimes))]
				it.Sign(c.idents[h%3])
				for _, e := range c.engines {
					e.AddMetadata(it)
				}
			}
			before := x.view.items.IDs()
			blk := c.mineLate(t, time.Duration(rng.Intn(10))*time.Minute)
			for _, obs := range []*Engine{x, y} {
				if _, err := obs.ReceiveBlock(blk); err != nil {
					t.Fatalf("observer, block %d: %v", h, err)
				}
			}
			for _, id := range before {
				if !x.OnChain(id) {
					expired++
				}
			}
			readView(x)
			for k := rng.Intn(4); k > 0; k-- {
				drift = time.Duration(rng.Intn(8*60)) * time.Minute
				readView(y)
			}
			if h%4 == 0 {
				sameSnapshots(t, x, y)
			}
		}
		if expired == 0 {
			t.Fatal("no item expired: the comparison would be vacuous")
		}
	})
}

// TestSnapshotRoundTripKeepsItemTable runs the item table through export,
// Encode, DecodeSnapshot and BootstrapFromSnapshot: the restored index
// renders the exporter's, and LiveItem and OnChain answer alike for every
// ID, with the assignments, counts and pending expiries derived from the
// items alone. The expired item is in neither.
func TestSnapshotRoundTripKeepsItemTable(t *testing.T) {
	c, obs, _, a, b, cc, d := expiryScenario(t)
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
		"live " + cc.ID.String(),
		"expires " + b.ID.String(),
		"expires " + d.ID.String(),
	} {
		if !strings.Contains(want, line) {
			t.Fatalf("scenario index lacks %q:\n%s", line, want)
		}
	}
	if strings.Contains(want, a.ID.String()) || len(snap.LiveItems) != 3 {
		t.Fatalf("snapshot holds %d items, want the 3 live ones:\n%s", len(snap.LiveItems), want)
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
// assignments, pending expiries, expired IDs and on-chain IDs beside the
// items, all of which later versions derive from the items; a version-5
// snapshot still wrote the expired IDs. DecodeSnapshot refuses both as bad
// snapshots rather than misread the counts as the view's block counts or
// the expired count as the item count.
func TestDecodeSnapshotRefusesVersion4(t *testing.T) {
	_, obs, _, _, _, _, _ := expiryScenario(t)
	snap, ok := obs.ExportSnapshot()
	if !ok {
		t.Fatal("no exportable snapshot")
	}
	idx := obs.snaps[len(obs.snaps)-1].view.items
	v6 := snap.Encode()
	// The ledger's head: everything up to and including the applied height.
	head := binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), SnapshotVersion)
	head = binary.AppendUvarint(head, snap.Height)
	head = wire.AppendBytes(head, snap.Block.Encode())
	head = binary.AppendUvarint(head, uint64(len(snap.Ledger.Mined)))
	for _, v := range append(append([]uint64(nil), snap.Ledger.Mined...), snap.Ledger.Stored...) {
		head = binary.AppendUvarint(head, v)
	}
	head = binary.AppendUvarint(head, snap.Ledger.Applied)
	if !bytes.HasPrefix(v6, head) {
		t.Fatal("the version-6 layout is not the one this test splices")
	}
	version := func(v uint32) []byte {
		return binary.BigEndian.AppendUint32(append([]byte(nil), snapshotMagic[:]...), v)
	}
	ids := func(w []byte, ids []meta.DataID) []byte {
		w = binary.AppendUvarint(w, uint64(len(ids)))
		for _, id := range ids {
			w = append(w, id[:]...)
		}
		return w
	}
	counts := func(w []byte) []byte {
		for _, n := range append(append([]int(nil), snap.BlockBodies...), snap.RecentDepth...) {
			w = binary.AppendUvarint(w, uint64(n))
		}
		return binary.AppendUvarint(w, snap.ViewHeight)
	}
	items := func(w []byte) []byte {
		w = binary.AppendUvarint(w, uint64(len(snap.LiveItems)))
		for _, it := range snap.LiveItems {
			w = it.AppendEncode(w)
		}
		return w
	}
	v4 := append(version(4), head[len(version(4)):]...)
	for i := range snap.BlockBodies {
		v4 = binary.AppendUvarint(v4, uint64(idx.Count(i)))
	}
	v4 = counts(v4)
	live := idx.IDs()
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
	v4 = ids(v4, nil)
	v4 = items(ids(v4, live))
	v5 := items(ids(counts(append(version(5), head[len(version(5)):]...)), nil))
	t.Logf("the same state: version 4 %d bytes, version 5 %d bytes, version 6 %d bytes", len(v4), len(v5), len(v6))
	if len(v4) <= len(v5) || len(v5) != len(v6)+1 {
		t.Fatalf("versions 4, 5 and 6 are %d, %d and %d bytes: the dropped lists are not what this test splices", len(v4), len(v5), len(v6))
	}
	for v, blob := range map[int][]byte{4: v4, 5: v5} {
		if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Fatalf("version-%d snapshot: err = %v, want ErrBadSnapshot for its version", v, err)
		}
	}
}

// TestPrunedEngineMatchesFull is the pruning differential test: a pruned
// replica and a full replica fed the same blocks end with bit-identical
// tips, headers, ledgers and item tables, while the pruned replica's body
// window stays O(PruneDepth). Items carry valid times drawn from {never,
// 10 min, 1 h}, so the tables also expire alike.
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
	rng := rand.New(rand.NewSource(3))
	lifetimes := []time.Duration{0, 10 * time.Minute, time.Hour}
	var items []*meta.Item
	for r := 0; r < rounds; r++ {
		if r%3 == 0 {
			validFor := lifetimes[rng.Intn(len(lifetimes))]
			items = append(items, c.validItem(t, r%len(c.engines), fmt.Sprintf("diff item %d", r), validFor))
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
	if got, want := pruned.view.items.Snapshot(), full.view.items.Snapshot(); got != want {
		t.Fatalf("item tables diverge:\npruned:\n%s\nfull:\n%s", got, want)
	}
	expired := 0
	for _, it := range items {
		live := !it.Expired(pruned.Tip().Timestamp)
		if pruned.OnChain(it.ID) != live || full.OnChain(it.ID) != live {
			t.Fatalf("item %s (valid for %v): on chain %v and %v at the tip, want %v", it.ID.Short(), it.ValidFor, pruned.OnChain(it.ID), full.OnChain(it.ID), live)
		}
		if !live {
			expired++
		}
	}
	if expired == 0 || expired == len(items) {
		t.Fatalf("%d of %d items expired: the valid times are not exercised", expired, len(items))
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
	expired := snap.LiveItems[0].Clone()
	expired.ValidFor = snap.Block.Timestamp - expired.Produced - 1
	cases := []struct {
		name   string
		mutate func(s *StateSnapshot)
	}{
		{"nil anchor", func(s *StateSnapshot) { s.Block = nil }},
		{"height mismatch", func(s *StateSnapshot) { s.Height++ }},
		{"ledger not applied to height", func(s *StateSnapshot) { s.Ledger.Applied-- }},
		{"view at another height", func(s *StateSnapshot) { s.ViewHeight-- }},
		{"roster shrunk", func(s *StateSnapshot) { s.BlockBodies = s.BlockBodies[:1] }},
		{"assignment outside the roster", func(s *StateSnapshot) { s.LiveItems[0] = offRoster }},
		{"unsorted IDs", func(s *StateSnapshot) {
			s.LiveItems[0], s.LiveItems[1] = s.LiveItems[1], s.LiveItems[0]
		}},
		{"duplicate IDs", func(s *StateSnapshot) { s.LiveItems[1] = s.LiveItems[0] }},
		{"item expired at the anchor", func(s *StateSnapshot) { s.LiveItems[0] = expired }},
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
	claimed := c.claimedBlock
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
		b := claimed(t, tc.item)
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
	b := claimed(t, inRoster)
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

// claimedBlock seals a validly claimed successor of the cluster's tip that
// carries items, at the next round's winning second, without adopting it.
func (c *testCluster) claimedBlock(t testing.TB, items ...*meta.Item) *block.Block {
	t.Helper()
	winner, r := c.nextRound(t)
	bld := block.NewBuilder(c.engines[0].Tip(), c.accounts[winner], c.now, r.T, r.B)
	for _, it := range items {
		bld.AddItem(it)
	}
	return bld.Seal()
}

// validItem signs an item of producer's with a valid time and pools it on
// every engine.
func (c *testCluster) validItem(t testing.TB, producer int, content string, validFor time.Duration) *meta.Item {
	t.Helper()
	it := c.item(producer, content)
	it.ValidFor = validFor
	it.Sign(c.idents[producer])
	for i, e := range c.engines {
		if !e.AddMetadata(it) {
			t.Fatalf("engine %d rejected item %q", i, content)
		}
	}
	return it
}

// TestExpiredItemsStayOffChain: an item whose valid time ends before a
// block's timestamp never enters that block. The miner does not re-announce
// it as a repair (Admit would refuse its own block), every engine drops it
// from its pool at that block — the miner, the peers that received the block
// and an observer that adopted the chain as one suffix — and a peer refuses
// a validly claimed block that carries one, first announced or re-announced.
func TestExpiredItemsStayOffChain(t *testing.T) {
	status := make([]repair.Status, 3)
	c := repairCluster(t, 3, status)
	packed := c.validItem(t, 0, "packed", 10*time.Minute)
	c.mineNext(t)
	if !c.engines[0].OnChain(packed.ID) {
		t.Fatal("the first block did not pack the item")
	}
	pooled := c.validItem(t, 1, "pooled", 2*time.Minute)
	observer := freshObserver(t, c) // adopts the chain as one suffix below
	if !observer.AddMetadata(pooled) {
		t.Fatal("the observer rejected the pooled item")
	}
	stale := func(it *meta.Item) *meta.Item { // a fresh copy, so no pool holds it
		cp := it.Clone()
		cp.ID = meta.HashData([]byte("stale copy of " + it.ID.String()))
		cp.Sign(c.idents[1])
		return cp
	}
	// A provider of the packed item dies, so the next miner would
	// re-announce it — but its block is sealed 15 min late, past both valid
	// times.
	status[c.engines[0].LiveItem(packed.ID).StoringNodes[0]] = repair.Dead
	b := c.mineLate(t, 15*time.Minute)
	if len(b.Items) != 0 {
		t.Fatalf("a block stamped %v packed %d items past their valid time", b.Timestamp, len(b.Items))
	}
	if _, ok := observer.AdoptSuffix(c.engines[0].Chain().Range(1, b.Index)); !ok || observer.PoolHas(pooled.ID) {
		t.Fatalf("the observer adopted the chain: %v, and still pools the expired item: %v", ok, observer.PoolHas(pooled.ID))
	}
	for i, e := range c.engines {
		if e.OnChain(packed.ID) {
			t.Fatalf("engine %d still holds the expired item on chain", i)
		}
		if e.PoolHas(pooled.ID) {
			t.Fatalf("engine %d (miner %v) kept the expired item in its pool", i, c.accounts[i] == b.Miner)
		}
		if e.AddMetadata(stale(pooled)) {
			t.Fatalf("engine %d pooled an expired item", i)
		}
	}

	late := c.item(2, "late")
	late.Produced, late.ValidFor = 0, time.Minute
	late.Sign(c.idents[2])
	again := packed.Clone()
	again.StoringNodes = []int{1, 2}
	for _, tc := range []struct {
		name string
		item *meta.Item
	}{
		{"first announced", late},
		{"re-announced", again},
	} {
		blk := c.claimedBlock(t, tc.item)
		for i, e := range c.engines {
			if _, err := e.ReceiveBlock(blk); err == nil {
				t.Fatalf("%s: engine %d adopted a block carrying an expired item", tc.name, i)
			}
			if _, ok := e.AdoptSuffix([]*block.Block{blk}); ok {
				t.Fatalf("%s: engine %d adopted the block as a suffix", tc.name, i)
			}
		}
	}
	if got := c.engines[0].Height(); got != 2 {
		t.Fatalf("height %d, want 2", got)
	}
}

// TestItemTableHoldsLiveItemsOnly runs 512 blocks of items with valid times
// on a pruned engine: after every block the item table holds exactly the
// unexpired on-chain items (an independent model follows the rule), and
// every snapshot encodes to at most its header plus those items'
// encodings, so neither grows with the items ever packed.
func TestItemTableHoldsLiveItemsOnly(t *testing.T) {
	const blocks = 512
	c := newTestCluster(t, 3, func(i int, cfg *Config) {
		cfg.SnapshotInterval = 4
		cfg.PruneDepth = 8
	})
	rng := rand.New(rand.NewSource(9))
	lifetimes := []time.Duration{2 * time.Minute, 10 * time.Minute, time.Hour}
	e := c.engines[0]
	live := make(map[meta.DataID]*meta.Item) // the model: latest version of each unexpired on-chain item
	packed, most := 0, 0
	for h := 1; h <= blocks; h++ {
		for k := rng.Intn(3); k > 0; k-- {
			c.validItem(t, rng.Intn(3), fmt.Sprintf("bounded item %d/%d", h, k), lifetimes[rng.Intn(len(lifetimes))])
		}
		b := c.mineNext(t)
		for id, it := range live {
			if it.Expired(b.Timestamp) {
				delete(live, id)
			}
		}
		for _, it := range b.Items {
			live[it.ID] = it
		}
		packed += len(b.Items)
		most = max(most, len(live))
		if got := len(e.View().Index().IDs()); got != len(live) {
			t.Fatalf("block %d: the item table holds %d items, %d are live", h, got, len(live))
		}
		if h%4 != 0 {
			continue
		}
		snap, ok := e.ExportSnapshot()
		if !ok || snap.Height != b.Index {
			t.Fatalf("block %d: no snapshot at its height", h)
		}
		bare := *snap
		bare.LiveItems = nil
		bound := len(bare.Encode()) - 1 + len(binary.AppendUvarint(nil, uint64(len(live))))
		for _, it := range live {
			bound += len(it.Encode())
		}
		if got := len(snap.Encode()); got > bound {
			t.Fatalf("block %d: snapshot of %d bytes exceeds its header and %d live items (%d bytes)", h, got, len(live), bound)
		}
	}
	if e.Chain().BodyBase() == 0 || packed < 4*most {
		t.Fatalf("pruned to %d, %d items packed, at most %d live: the bound is not exercised", e.Chain().BodyBase(), packed, most)
	}
	t.Logf("%d items packed over %d blocks, at most %d live at once", packed, blocks, most)
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
