package repair

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

func testItem(tag string, produced, validFor time.Duration, storing ...int) *meta.Item {
	return &meta.Item{
		ID:           meta.HashData([]byte(tag)),
		Type:         "Test/Repair",
		Produced:     produced,
		ValidFor:     validFor,
		DataSize:     len(tag),
		StoringNodes: storing,
	}
}

// --- index ------------------------------------------------------------------

func TestIndexApplyReplaceAndReverse(t *testing.T) {
	idx := NewIndex(4)
	a := testItem("a", 0, 0, 2, 0)
	idx.Apply(a)
	if got := idx.Providers(a.ID); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("providers = %v, want [0 2]", got)
	}
	if items := idx.Items(2); len(items) != 1 || items[0] != a.ID || idx.Count(2) != 1 {
		t.Fatalf("node 2 items = %v, count %d", items, idx.Count(2))
	}
	// Re-announcement replaces the previous assignment entirely.
	moved := a.Clone()
	moved.StoringNodes = []int{1, 3}
	idx.Apply(moved)
	if got := idx.Providers(a.ID); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("providers after re-announcement (repair) = %v, want [1 3]", got)
	}
	if items := idx.Items(0); len(items) != 0 || idx.Count(0) != 0 || idx.Count(3) != 1 {
		t.Fatalf("node 0 still indexed after re-announcement (repair): %v (counts %d, %d)", items, idx.Count(0), idx.Count(3))
	}
	// Out-of-range storing nodes are dropped, like StorageView.
	weird := a.Clone()
	weird.StoringNodes = []int{-1, 2, 99}
	idx.Apply(weird)
	if got := idx.Providers(a.ID); len(got) != 1 || got[0] != 2 {
		t.Fatalf("providers with junk input = %v, want [2]", got)
	}
}

func TestIndexExpiry(t *testing.T) {
	idx := NewIndex(3)
	short := testItem("short", 0, 10*time.Second, 0, 1)
	forever := testItem("forever", 0, 0, 1, 2)
	idx.Apply(short)
	idx.Apply(forever)

	// Strict comparison: at exactly ExpiresAt the item is still live.
	if gone := idx.ExpireUntil(10 * time.Second); gone != nil || idx.Providers(short.ID) == nil {
		t.Fatalf("item expired at exactly ExpiresAt (%v); expiry must be strict", gone)
	}
	if gone := idx.ExpireUntil(10*time.Second + 1); len(gone) != 1 || gone[0] != short.ID || idx.Providers(short.ID) != nil {
		t.Fatalf("expired %v past the valid time, want the short item", gone)
	}
	if items := idx.Items(0); len(items) != 0 || idx.Count(0) != 0 || idx.Count(1) != 1 {
		t.Fatalf("node 0 items after expiry = %v (counts %d, %d)", items, idx.Count(0), idx.Count(1))
	}
	if idx.Providers(forever.ID) == nil {
		t.Fatal("ValidFor==0 item must never expire")
	}
	// The expired item is gone from the table, not flagged: the index holds
	// live items only, and a stale re-announcement is Admit's to refuse.
	if idx.Item(short.ID) != nil {
		t.Fatal("expired item still in the table")
	}
	if ids := idx.IDs(); len(ids) != 1 || ids[0] != forever.ID {
		t.Fatalf("IDs = %v, want only the forever item", ids)
	}
	if err := idx.Admit(10*time.Second+1, []*meta.Item{short.Clone()}); err == nil {
		t.Fatal("Admit passed a stale re-announcement of an expired item")
	}
}

func TestIndexRebuildMatchesIncremental(t *testing.T) {
	genesis := block.Genesis(1)
	items := []*meta.Item{
		testItem("x", 0, 5*time.Second, 0, 1),
		testItem("y", 0, 0, 1, 2),
		testItem("z", 2*time.Second, 20*time.Second, 0, 2),
	}
	reannounced := items[1].Clone()
	reannounced.StoringNodes = []int{0, 3}
	blocks := []*block.Block{
		genesis,
		{Index: 1, Timestamp: time.Second, Items: items[:2]},
		{Index: 2, Timestamp: 8 * time.Second, Items: []*meta.Item{items[2], reannounced}},
	}

	inc := NewIndex(4)
	var expired []meta.DataID
	for _, b := range blocks[1:] {
		expired = append(expired, inc.ApplyBlock(b, nil)...)
	}
	if len(expired) != 1 || expired[0] != items[0].ID {
		t.Fatalf("blocks expired %v, want x at block 2", expired)
	}

	scratch := NewIndex(4)
	scratch.Rebuild(blocks)

	if inc.Snapshot() != scratch.Snapshot() {
		t.Fatalf("incremental and rebuilt snapshots differ:\n--- incremental\n%s--- rebuilt\n%s",
			inc.Snapshot(), scratch.Snapshot())
	}
	if inc.Providers(items[0].ID) != nil {
		t.Fatal("item x should have expired")
	}
	if got := inc.Providers(items[1].ID); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("re-announced item providers = %v, want [0 3]", got)
	}
}

// A clone shares nothing the index writes: changing either side leaves the
// other's Snapshot and counts as they were.
func TestIndexCloneIndependent(t *testing.T) {
	idx := NewIndex(4)
	short := testItem("short", 0, 10*time.Second, 0, 1)
	forever := testItem("forever", 0, 0, 1, 2)
	idx.Apply(short)
	idx.Apply(forever)
	before := idx.Snapshot()

	cp := idx.Clone()
	if cp.Snapshot() != before {
		t.Fatalf("clone renders\n%s\nwant\n%s", cp.Snapshot(), before)
	}
	moved := forever.Clone()
	moved.StoringNodes = []int{3}
	cp.Apply(moved)
	cp.Apply(testItem("fresh", 0, time.Minute, 0))
	cp.ExpireUntil(time.Hour)
	if got := idx.Snapshot(); got != before {
		t.Fatalf("mutating the clone changed the original:\n%s\nwant\n%s", got, before)
	}
	if idx.Count(0) != 1 || idx.Count(1) != 2 || idx.Count(3) != 0 {
		t.Fatalf("original counts %d/%d/%d, want 1/2/0", idx.Count(0), idx.Count(1), idx.Count(3))
	}

	after := cp.Snapshot()
	idx.ExpireUntil(time.Hour)
	idx.Apply(testItem("other", 0, 0, 2))
	if got := cp.Snapshot(); got != after {
		t.Fatalf("mutating the original changed the clone:\n%s\nwant\n%s", got, after)
	}
}

// Export and RestoreIndex round-trip the whole index — assignments,
// pending expiries, the counts — from the items alone, and a restored index
// keeps applying the rule: its pending expiries fire.
func TestIndexExportRestore(t *testing.T) {
	idx := NewIndex(4)
	for _, it := range []*meta.Item{
		testItem("a", 0, 30*time.Second, 3, 0),
		testItem("b", 0, 0, 1, 2),
		testItem("c", 0, 5*time.Second, 2),
		testItem("d", time.Second, 30*time.Second, 1),
	} {
		idx.Apply(it)
	}
	const at = 10 * time.Second
	idx.ExpireUntil(at) // c expires; a and d stay pending
	items := idx.Export()
	if len(items) != 3 || idx.Item(items[0].ID) != items[0] {
		t.Fatalf("export: %d items, want the 3 live ones", len(items))
	}
	back, err := RestoreIndex(4, at, items)
	if err != nil {
		t.Fatal(err)
	}
	if back.Snapshot() != idx.Snapshot() {
		t.Fatalf("restored\n%s\nwant\n%s", back.Snapshot(), idx.Snapshot())
	}
	for i := 0; i < 4; i++ {
		if back.Count(i) != idx.Count(i) {
			t.Fatalf("node %d: restored count %d, want %d", i, back.Count(i), idx.Count(i))
		}
	}
	for _, it := range items {
		if back.Item(it.ID) != idx.Item(it.ID) {
			t.Fatalf("item %s: restored version differs", it.ID.Short())
		}
	}
	back.ExpireUntil(time.Minute)
	idx.ExpireUntil(time.Minute)
	if back.Snapshot() != idx.Snapshot() || len(back.IDs()) != 1 {
		t.Fatalf("restored index stopped following the rule:\n%s", back.Snapshot())
	}

	// Unsorted storing nodes are sorted on the way in.
	unsorted := testItem("u", 0, 0, 3, 1)
	r, err := RestoreIndex(4, 0, []*meta.Item{unsorted})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Providers(unsorted.ID); !reflect.DeepEqual(got, []int{1, 3}) || r.Count(3) != 1 {
		t.Fatalf("unsorted nodes restored as %v", got)
	}
	// Input that names a value no honest export writes is refused.
	sorted := func(its ...*meta.Item) []*meta.Item {
		sort.Slice(its, func(i, j int) bool { return compareID(its[i].ID, its[j].ID) < 0 })
		return its
	}
	x, y := testItem("x", 0, 0, 0), testItem("y", 0, 0, 1)
	asc := sorted(x, y)
	for _, tc := range []struct {
		name  string
		items []*meta.Item
	}{
		{"node outside the roster", []*meta.Item{testItem("off", 0, 0, 4)}},
		{"unsorted items", []*meta.Item{asc[1], asc[0]}},
		{"duplicate items", []*meta.Item{x, x}},
		{"item expired at the anchor", sorted(x, testItem("gone", 0, 5*time.Second, 0))},
	} {
		if _, err := RestoreIndex(4, at, tc.items); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}
}

// Admit refuses exactly the items Export could not carry: a storing node
// outside the roster, and a version of an ID whose valid time differs from
// the ID's first announcement, on chain or earlier in the same block.
// Applied anyway, such a re-announcement leaves the index expiring the item
// at a time its export no longer names; what Admit passes restores whole.
func TestIndexAdmit(t *testing.T) {
	idx := NewIndex(3)
	a := testItem("a", 0, 30*time.Second, 0, 1)
	short := testItem("short", 0, 15*time.Second, 0)
	idx.Apply(a)
	idx.Apply(short)
	before := idx.Snapshot()
	with := func(it *meta.Item, edit func(*meta.Item)) *meta.Item {
		cp := it.Clone()
		edit(cp)
		return cp
	}
	b := testItem("b", time.Second, time.Minute, 2)
	moved := with(a, func(it *meta.Item) { it.StoringNodes = []int{2} })
	bMoved := with(b, func(it *meta.Item) { it.StoringNodes = []int{0} })
	longer := with(a, func(it *meta.Item) { it.ValidFor = time.Hour })
	later := with(a, func(it *meta.Item) { it.Produced = time.Second })
	bForever := with(b, func(it *meta.Item) { it.ValidFor = 0 })
	stale := testItem("stale", 0, 10*time.Second, 1)
	const at = 20 * time.Second // the block's timestamp
	for _, tc := range []struct {
		name  string
		items []*meta.Item
		ok    bool
	}{
		{"new items and re-announcements keeping the valid time", []*meta.Item{b, moved, bMoved}, true},
		{"new item expired at the block's timestamp", []*meta.Item{stale}, false},
		{"re-announcement expired at the block's timestamp", []*meta.Item{with(short, func(it *meta.Item) { it.StoringNodes = []int{2} })}, false},
		{"item live at exactly the block's timestamp", []*meta.Item{testItem("edge", 0, at, 2)}, true},
		{"storing node outside the roster", []*meta.Item{testItem("off", 0, 0, 0, 7)}, false},
		{"negative storing node", []*meta.Item{testItem("neg", 0, 0, -1)}, false},
		{"on-chain item with another ValidFor", []*meta.Item{longer}, false},
		{"on-chain item with another Produced", []*meta.Item{later}, false},
		{"new item twice with another ValidFor", []*meta.Item{b, bForever}, false},
	} {
		if err := idx.Admit(at, tc.items); (err == nil) != tc.ok {
			t.Errorf("%s: Admit = %v", tc.name, err)
		}
	}
	if idx.Snapshot() != before {
		t.Fatal("Admit changed the index")
	}

	if gone := idx.ApplyBlock(&block.Block{Index: 1, Timestamp: at, Items: []*meta.Item{b, moved, bMoved}}, nil); len(gone) != 1 || gone[0] != short.ID {
		t.Fatalf("the block expired %v, want the short item", gone)
	}
	back, err := RestoreIndex(3, at, idx.Export())
	if err != nil {
		t.Fatal(err)
	}
	idx.ExpireUntil(45 * time.Second) // a expires; b stays pending
	back.ExpireUntil(45 * time.Second)
	if back.Snapshot() != idx.Snapshot() {
		t.Fatalf("restored\n%s\nwant\n%s", back.Snapshot(), idx.Snapshot())
	}

	refused := NewIndex(3)
	refused.Apply(a)
	refused.Apply(longer)
	if back, err = RestoreIndex(3, at, refused.Export()); err != nil {
		t.Fatal(err)
	}
	if back.Snapshot() == refused.Snapshot() {
		t.Fatal("a re-announcement with another valid time restored whole; Admit need not refuse it")
	}
}

func TestIndexDeficits(t *testing.T) {
	idx := NewIndex(4)
	a := testItem("a", 0, 0, 0, 1)
	b := testItem("b", 0, 0, 2, 3)
	single := testItem("s", 0, 0, 3)
	idx.Apply(a)
	idx.Apply(b)
	idx.Apply(single)

	dead := func(i int) bool { return i == 1 }
	defs := idx.Deficits(0, 2, dead)
	if len(defs) != 2 {
		t.Fatalf("deficits = %+v, want item a (dead provider) and item s (single replica)", defs)
	}
	for _, d := range defs {
		if d.ID == a.ID {
			if len(d.Alive) != 1 || d.Alive[0] != 0 {
				t.Fatalf("item a alive providers = %v, want [0]", d.Alive)
			}
		}
		if d.Want != 2 {
			t.Fatalf("want = %d with 3 up nodes, expected floor 2", d.Want)
		}
	}
	// With only one node up, the effective floor drops to 1: fully-dead
	// assignments still show, satisfiable ones don't.
	mostlyDead := func(i int) bool { return i != 3 }
	defs = idx.Deficits(0, 2, mostlyDead)
	if len(defs) != 1 || defs[0].ID != a.ID || defs[0].Want != 1 {
		t.Fatalf("deficits with one up node = %+v, want only item a at floor 1", defs)
	}
	if defs := idx.Deficits(0, 2, nil); len(defs) != 1 || defs[0].ID != single.ID {
		t.Fatalf("deficits with all alive = %+v, want only the single-replica item", defs)
	}
}

// deficitsReference is Deficits as it was before it stopped sorting every
// live ID: sort all IDs byte by byte, build Alive for each.
func deficitsReference(idx *Index, floor int, dead func(i int) bool) []Deficit {
	upNodes := len(idx.count)
	if dead != nil {
		upNodes = 0
		for i := 0; i < len(idx.count); i++ {
			if !dead(i) {
				upNodes++
			}
		}
	}
	want := floor
	if want > upNodes {
		want = upNodes
	}
	var live []meta.DataID
	for id := range idx.items {
		live = append(live, id)
	}
	sort.Slice(live, func(a, b int) bool {
		for k := range live[a] {
			if live[a][k] != live[b][k] {
				return live[a][k] < live[b][k]
			}
		}
		return false
	})
	var out []Deficit
	for _, id := range live {
		provs := idx.items[id].nodes
		alive := make([]int, 0, len(provs))
		for _, p := range provs {
			if dead == nil || !dead(p) {
				alive = append(alive, p)
			}
		}
		if len(alive) < want {
			out = append(out, Deficit{ID: id, Alive: alive, Want: want})
		}
	}
	return out
}

// Deficits answers what the full-sort body answered — same deficits, same
// Alive lists, same order — and leaves the index as it was, on random
// indexes, dead sets, floors and expiry instants. Its time argument changes
// nothing: the index expires at block timestamps only.
func TestDeficitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		got, ref := NewIndex(n), NewIndex(n)
		for i, items := 0, rng.Intn(80); i < items; i++ {
			storing := make([]int, rng.Intn(5))
			for j := range storing {
				storing[j] = rng.Intn(n+2) - 1 // out-of-roster indices are dropped by Apply
			}
			tag := string(rune('a' + rng.Intn(40))) // repeats are re-announcements
			it := testItem(tag, time.Duration(rng.Intn(100))*time.Second, time.Duration(rng.Intn(3))*time.Minute, storing...)
			got.Apply(it)
			ref.Apply(it)
		}
		deadSet := make([]bool, n)
		for i := range deadSet {
			deadSet[i] = rng.Intn(3) == 0
		}
		dead := func(i int) bool { return deadSet[i] }
		if rng.Intn(4) == 0 {
			dead = nil
		}
		now, floor := time.Duration(rng.Intn(200))*time.Second, rng.Intn(5)
		got.ExpireUntil(now)
		ref.ExpireUntil(now)
		before := got.Snapshot()
		want := deficitsReference(ref, floor, dead)
		if have := got.Deficits(now+time.Hour, floor, dead); !reflect.DeepEqual(have, want) {
			t.Fatalf("trial %d: Deficits = %+v, reference %+v", trial, have, want)
		}
		if got.Snapshot() != before {
			t.Fatalf("trial %d: Deficits changed the index", trial)
		}
	}
}

// --- churn detector ---------------------------------------------------------

func TestDetectorLifecycle(t *testing.T) {
	cfg := DetectorConfig{N: 3, Self: 0, SuspectAfter: 10 * time.Second, Hysteresis: 15 * time.Second}
	d := NewDetector(cfg, 0)

	// Boot grace: nobody is suspect before SuspectAfter elapses.
	if s := d.Status(1, 9*time.Second); s != Alive {
		t.Fatalf("status during boot grace = %v, want alive", s)
	}
	if s := d.Status(1, 10*time.Second); s != Suspect {
		t.Fatalf("status at SuspectAfter = %v, want suspect", s)
	}
	// Hysteresis: suspect does not become dead until the extra window passes.
	if s := d.Status(1, 24*time.Second); s != Suspect {
		t.Fatalf("status inside hysteresis = %v, want suspect", s)
	}
	if s := d.Status(1, 25*time.Second); s != Dead {
		t.Fatalf("status past hysteresis = %v, want dead", s)
	}
	// Fresh evidence revives immediately.
	d.Seen(1, 25*time.Second)
	if s := d.Status(1, 26*time.Second); s != Alive {
		t.Fatalf("status after Seen = %v, want alive", s)
	}
	// Self is always alive.
	if s := d.Status(0, time.Hour); s != Alive {
		t.Fatalf("self status = %v, want alive", s)
	}
	if got := d.CountDead(time.Hour); got != 2 {
		t.Fatalf("CountDead = %d, want 2 (everyone but self and the revived node... )", got)
	}
}

func TestDetectorFailuresForceSuspectNotDead(t *testing.T) {
	cfg := DetectorConfig{N: 2, Self: 0, SuspectAfter: time.Minute, Hysteresis: time.Minute}
	d := NewDetector(cfg, 0)
	for i := 1; i < failThreshold; i++ {
		d.Fail(1)
	}
	if s := d.Status(1, time.Second); s != Alive {
		t.Fatalf("status below failThreshold = %v, want alive", s)
	}
	d.Fail(1)
	if s := d.Status(1, time.Second); s != Suspect {
		t.Fatalf("status at failThreshold = %v, want suspect", s)
	}
	// Failures alone can NEVER kill: Dead requires the full silence window.
	for i := 0; i < 100; i++ {
		d.Fail(1)
	}
	if s := d.Status(1, 90*time.Second); s != Suspect {
		t.Fatalf("status with failures inside silence window = %v, want suspect", s)
	}
	d.Seen(1, 90*time.Second)
	if s := d.Status(1, 91*time.Second); s != Alive {
		t.Fatalf("Seen must clear the failure count, got %v", s)
	}
}

func TestDetectorSeenMonotonic(t *testing.T) {
	d := NewDetector(DetectorConfig{N: 2, Self: 0, SuspectAfter: 10 * time.Second}, 0)
	d.Seen(1, 30*time.Second)
	// Replaying an old block must not rewind the liveness evidence.
	d.Seen(1, 5*time.Second)
	if s := d.Status(1, 35*time.Second); s != Alive {
		t.Fatalf("stale evidence rewound lastSeen: %v", s)
	}
}

// --- limiter ----------------------------------------------------------------

func TestLimiter(t *testing.T) {
	l := NewLimiter(1000, 2000, 0) // 1000 B/s, 2000 B burst, starts full
	if !l.Allow(0, 2000) {
		t.Fatal("full bucket refused its burst")
	}
	if l.Allow(0, 1) {
		t.Fatal("empty bucket allowed a send")
	}
	if !l.Allow(500*time.Millisecond, 500) {
		t.Fatal("refill at rate*elapsed did not cover 500 bytes after 500ms")
	}
	if l.Allow(500*time.Millisecond, 1) {
		t.Fatal("bucket drained twice at the same instant")
	}
	// Refill saturates at burst.
	if !l.Allow(time.Hour, 2000) {
		t.Fatal("bucket did not refill to burst")
	}
	if l.Allow(time.Hour, 1) {
		t.Fatal("bucket exceeded burst capacity")
	}
	// A frame larger than the burst passes a full bucket only, and the debt
	// it leaves is paid off at the rate before anything else goes out.
	if l.Allow(time.Hour+time.Second, 5000) {
		t.Fatal("an oversized frame passed a bucket that was not full")
	}
	if !l.Allow(time.Hour+2*time.Second, 5000) {
		t.Fatal("a full bucket refused a frame larger than its burst")
	}
	if l.Allow(time.Hour+4999*time.Millisecond, 1) {
		t.Fatal("a bucket 1 byte in debt allowed a send")
	}
	if !l.Allow(time.Hour+6*time.Second, 999) {
		t.Fatal("debt not paid off at the rate")
	}
	unlimited := NewLimiter(0, 0, 0)
	if !unlimited.Allow(0, 1<<40) {
		t.Fatal("rate<=0 must disable limiting")
	}
}
