package livenode

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/repair"
	"repro/internal/sim"
)

// Directed data fetch (DESIGN.md §11.1) on the fake fabric: delivery is
// synchronous, so a request and its answer complete inside RequestData, and
// the shared fake clock decides when a silent candidate is given up.

// pendingFetches reports how many data fetches are being tracked.
func (n *Node) pendingFetches() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.fetches.pending)
}

// wireFrame is one frame the fabric was asked to carry.
type wireFrame struct {
	from, to string
	ft       byte
}

// fetchCluster is size nodes "n0".."n<size-1>" with one roster, one fake
// clock and a full transport mesh whose hellos have bound every roster index
// everywhere; nobody mines. wire records the data-plane frames; a data
// request to a silent node is recorded and dropped.
type fetchCluster struct {
	fn     *fakeNet
	clk    *sim.VClock
	nodes  []*syncTestNode
	wire   []wireFrame
	silent map[string]bool
}

func newFetchCluster(t *testing.T, size int, mutate func(cfg *Config)) *fetchCluster {
	t.Helper()
	fc := &fetchCluster{fn: newFakeNet(), silent: make(map[string]bool)}
	epoch := time.Unix(1700000000, 0)
	fc.clk = sim.NewVClock(epoch)
	idents, accounts := testRoster(size)
	for i := 0; i < size; i++ {
		// The helper's own roster has three nodes; every field derived from
		// its index argument is replaced here.
		n := newGossipTestNode(t, fc.fn, fc.clk, fmt.Sprintf("n%d", i), 0, epoch, func(cfg *Config) {
			cfg.Identity, cfg.Accounts = idents[i], accounts
			if mutate != nil {
				mutate(cfg)
			}
		})
		n.stopMining()
		fc.nodes = append(fc.nodes, n)
	}
	link(t, fc.nodes...)
	fc.fn.setDrop(func(from, to string, ft byte) bool {
		if ft == p2p.FrameDataRequest || ft == p2p.FrameData {
			fc.wire = append(fc.wire, wireFrame{from, to, ft})
		}
		return ft == p2p.FrameDataRequest && fc.silent[to]
	})
	return fc
}

// silence makes the given nodes drop every data request they are sent:
// candidates that neither answer nor refuse.
func (fc *fetchCluster) silence(nodes ...int) {
	for _, i := range nodes {
		fc.silent[fc.nodes[i].Addr()] = true
	}
}

// know binds, at node at, the given roster nodes to their transport
// addresses, as their hellos do.
func (fc *fetchCluster) know(at int, nodes ...int) {
	n := fc.nodes[at]
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, i := range nodes {
		n.bindAddrLocked(i, fc.nodes[i].Addr())
	}
}

// forget unbinds, at node at, the given roster nodes, as if no hello had
// named them.
func (fc *fetchCluster) forget(at int, nodes ...int) {
	n := fc.nodes[at]
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, i := range nodes {
		delete(n.idxOf, n.addrOf[i])
		n.addrOf[i] = ""
	}
}

// item makes node `at` aware of an item produced by roster node producer
// and placed on storers, and gives the bytes to every node in holders.
func (fc *fetchCluster) item(t *testing.T, at int, content string, producer int, storers []int, holders ...int) meta.DataID {
	t.Helper()
	it := testItem(fc.nodes[0].idents()[producer], content, 0)
	it.StoringNodes = storers
	n := fc.nodes[at]
	n.mu.Lock()
	n.eng.AddLocal(it)
	n.mu.Unlock()
	for _, h := range holders {
		if err := fc.nodes[h].store.PutData(it.ID, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return it.ID
}

func (fc *fetchCluster) sent(ft byte) (frames []wireFrame) {
	for _, f := range fc.wire {
		if f.ft == ft {
			frames = append(frames, f)
		}
	}
	return frames
}

// gotData collects what OnData delivers to node at.
func (fc *fetchCluster) gotData(at int) map[meta.DataID]string {
	got := make(map[meta.DataID]string)
	fc.nodes[at].SetOnData(func(id meta.DataID, content []byte) { got[id] = string(content) })
	return got
}

func dataRequest(id meta.DataID, mark byte) []byte {
	return append(id[:], mark)
}

// hello is the hello of roster node i.
func hello(i uint64) []byte { return binary.AppendUvarint(nil, i) }

// (a) The first candidate holds the bytes: one request, one answer, no
// timer left behind.
func TestFetchAsksOneHolder(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "one holder is enough", 3, []int{1, 2}, 1, 2, 3)
	got := fc.gotData(0)
	timers := fc.clk.Pending()

	a.RequestData(id)

	want := []wireFrame{{"n0", "n1", p2p.FrameDataRequest}, {"n1", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) {
		t.Fatalf("wire carried %v, want %v", fc.wire, want)
	}
	if got[id] != "one holder is enough" || !a.HasData(id) {
		t.Fatalf("content not delivered: %q", got[id])
	}
	if a.pendingFetches() != 0 || fc.clk.Pending() != timers {
		t.Fatalf("served fetch left %d entries and %d timers behind", a.pendingFetches(), fc.clk.Pending()-timers)
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.fetch.directed") != 1 ||
		snap.Counter("livenode.fetch.next_candidate") != 0 || snap.Histogram("livenode.data.fetch_ns").Count != 1 {
		t.Fatalf("counters after one directed fetch: %v", snap.Counters)
	}
	if snap.Gauge("livenode.roster.bound") != 3 {
		t.Fatalf("roster.bound = %d, want 3", snap.Gauge("livenode.roster.bound"))
	}
	// The answer to a fetch that is over is unsolicited like any other.
	fc.nodes[2].send("n0", p2p.FrameData, append(id[:], "one holder is enough"...))
	if len(got) != 1 {
		t.Fatal("OnData fired twice for one fetch")
	}
}

// Consumers start at the storing node their own index selects and ask the
// producer last; a storing node's own fetch, placement or repair, asks the
// producer first. Unknown
// addresses, this node itself and a producer that also stores are skipped.
func TestFetchCandidateOrder(t *testing.T) {
	fc := newFetchCluster(t, 5, nil)
	cands := func(at int, id meta.DataID, purpose fetchPurpose) []string {
		n := fc.nodes[at]
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.fetchCandidatesLocked(id, purpose)
	}
	for _, at := range []int{0, 3} {
		fc.know(at, 0, 1, 2, 3, 4)
	}
	id0 := fc.item(t, 0, "ordered", 4, []int{1, 2})
	id3 := fc.item(t, 3, "ordered", 4, []int{1, 2})
	for _, tc := range []struct {
		at      int
		id      meta.DataID
		purpose fetchPurpose
		want    []string
	}{
		{0, id0, consumerFetch, []string{"n1", "n2", "n4"}},
		{3, id3, consumerFetch, []string{"n2", "n1", "n4"}}, // (k+3) mod 2: the other replica first
		{0, id0, placementFetch, []string{"n4", "n1", "n2"}},
		{0, id0, repairFetch, []string{"n4", "n1", "n2"}},
		{0, fc.item(t, 0, "producer stores too", 1, []int{0, 1, 2}), consumerFetch, []string{"n1", "n2"}},
		{0, fc.item(t, 0, "pooled, not placed yet", 2, nil), consumerFetch, []string{"n2"}},
		{0, meta.HashData([]byte("never heard of")), consumerFetch, nil},
	} {
		if got := cands(tc.at, tc.id, tc.purpose); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("node %d purpose %d: candidates %v, want %v", tc.at, tc.purpose, got, tc.want)
		}
	}
	// A node with an empty table has nobody to ask.
	fc.forget(2, 0, 1, 3, 4)
	if got := cands(2, fc.item(t, 2, "ordered", 4, []int{0, 1}), consumerFetch); got != nil {
		t.Errorf("candidates %v from an empty address table", got)
	}
}

// With a churn detector the one picker also knows who is worth asking: dead
// holders are skipped and suspect ones go last, for every purpose.
func TestFetchCandidatesFollowLiveness(t *testing.T) {
	fc := newFetchCluster(t, 5, func(cfg *Config) {
		cfg.RepairWorkers = 1
		cfg.RepairSuspectAfter, cfg.RepairHysteresis = 10*time.Second, 10*time.Second
	})
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3, 4)
	id := fc.item(t, 0, "who is worth asking", 4, []int{1, 2, 3})
	// The clock stands at 25 s and no probe got through: node 1 was last
	// heard at 0 (dead), node 2 at 10 s (suspect), 3 and 4 just now.
	fc.fn.setDrop(func(string, string, byte) bool { return true })
	fc.clk.Advance(25 * time.Second)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.repair.det.Seen(2, 10*time.Second)
	a.repair.det.Seen(3, a.now())
	a.repair.det.Seen(4, a.now())
	for _, tc := range []struct {
		purpose fetchPurpose
		want    []string
	}{
		{consumerFetch, []string{"n3", "n4", "n2"}},
		{repairFetch, []string{"n4", "n3", "n2"}},
		{placementFetch, []string{"n4", "n3", "n2"}},
	} {
		if got := a.fetchCandidatesLocked(id, tc.purpose); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("purpose %d: candidates %v, want %v", tc.purpose, got, tc.want)
		}
	}
}

// (b) The first candidate is alive but lacks the bytes: it says so with the
// bare ID, and the second is asked at once. A first candidate that stays
// silent instead is given up after syncTimeout, and the latency counts from
// the first request.
func TestFetchSilentCandidateMovesOn(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "second replica has it", 3, []int{1, 2}, 2)

	a.RequestData(id)
	want := []wireFrame{{"n0", "n1", p2p.FrameDataRequest}, {"n1", "n0", p2p.FrameData},
		{"n0", "n2", p2p.FrameDataRequest}, {"n2", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) || !a.HasData(id) {
		t.Fatalf("a holder without the bytes: the wire carried %v, want %v", fc.wire, want)
	}
	snap := a.reg.Snapshot()
	if h := snap.Histogram("livenode.data.fetch_ns"); h.Count != 1 || h.Max != 0 {
		t.Fatalf("fetch latency %+v, want one sample of 0: the nack costs no wait", h)
	}

	fc.wire = nil
	fc.silence(1)
	id = fc.item(t, 0, "second replica has this too", 3, []int{1, 2}, 2)
	a.RequestData(id)
	if len(fc.wire) != 1 || fc.wire[0].to != "n1" || a.HasData(id) {
		t.Fatalf("before the timeout the wire carried %v", fc.wire)
	}
	fc.clk.Advance(syncTimeout - time.Millisecond)
	if len(fc.wire) != 1 {
		t.Fatalf("moved on before syncTimeout: %v", fc.wire)
	}
	fc.clk.Advance(time.Millisecond)
	want = []wireFrame{{"n0", "n1", p2p.FrameDataRequest}, {"n0", "n2", p2p.FrameDataRequest}, {"n2", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) || !a.HasData(id) {
		t.Fatalf("a silent holder: the wire carried %v, want %v", fc.wire, want)
	}
	snap = a.reg.Snapshot()
	if h := snap.Histogram("livenode.data.fetch_ns"); h.Count != 2 || h.Max != int64(syncTimeout) {
		t.Fatalf("fetch latency %+v, want a second sample of %v", h, syncTimeout)
	}
	if snap.Counter("livenode.fetch.directed") != 4 || snap.Counter("livenode.fetch.next_candidate") != 2 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	fc.clk.Advance(time.Hour)
	if len(fc.wire) != 3 || a.pendingFetches() != 0 {
		t.Fatalf("a served fetch went on: %d pending, wire %v", a.pendingFetches(), fc.wire)
	}
}

// (c) A Send error moves to the next candidate inside the same call and
// feeds the churn detector exactly as any failed send does.
func TestFetchSendErrorMovesOnAtOnce(t *testing.T) {
	fc := newFetchCluster(t, 4, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	fc.know(0, 2, 3)
	a.mu.Lock()
	a.bindAddrLocked(1, "gone") // no such endpoint: Send fails
	a.mu.Unlock()
	for i := 0; i < 3; i++ {
		id := fc.item(t, 0, fmt.Sprintf("unreachable first %d", i), 3, []int{1, 2}, 2)
		a.RequestData(id)
		if !a.HasData(id) {
			t.Fatalf("fetch %d did not reach the second candidate in the same call; wire %v", i, fc.wire)
		}
	}
	if got := len(fc.sent(p2p.FrameDataRequest)); got != 3 {
		t.Fatalf("%d requests delivered, want the 3 to n2", got)
	}
	if v := counter(a.reg, "livenode.fetch.next_candidate"); v != 3 {
		t.Fatalf("fetch.next_candidate = %d, want 3", v)
	}
	a.mu.Lock()
	status := a.repair.det.Status(1, a.now())
	a.mu.Unlock()
	if status != repair.Suspect {
		t.Fatalf("three failed sends left node 1 %v, want suspect", status)
	}
}

// (d) A walk whose candidates all refuse, or stay silent, ends: nothing is
// broadcast, no entry or timer is left, and a repeated RequestData walks the
// candidates again. An item this node cannot name has no candidate, and its
// fetch ends before it asks anybody.
func TestFetchWalkEndsWhenCandidatesRunOut(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "nobody has it", 3, []int{1, 2})
	timers := fc.clk.Pending()

	a.RequestData(id)
	if got := fc.sent(p2p.FrameDataRequest); len(got) != 3 || len(fc.sent(p2p.FrameData)) != 3 {
		t.Fatalf("wire carried %v, want three requests and three nacks", fc.wire)
	}
	if a.pendingFetches() != 0 || fc.clk.Pending() != timers || a.HasData(id) {
		t.Fatalf("a walk that ran out left %d entries and %d timers", a.pendingFetches(), fc.clk.Pending()-timers)
	}

	fc.wire = nil
	fc.silence(1, 2, 3)
	a.RequestData(id)
	a.RequestData(id) // the first candidate is being asked: nothing to do
	if got := fc.sent(p2p.FrameDataRequest); len(got) != 1 || got[0].to != "n1" {
		t.Fatalf("a repeated request disturbed the cursor: %v", got)
	}
	fc.clk.Advance(3*syncTimeout - time.Millisecond)
	if a.pendingFetches() != 1 || len(fc.sent(p2p.FrameDataRequest)) != 3 {
		t.Fatalf("%d pending after %v of silence, wire %v", a.pendingFetches(), 3*syncTimeout, fc.wire)
	}
	fc.clk.Advance(time.Millisecond)
	if a.pendingFetches() != 0 || fc.clk.Pending() != timers || len(fc.wire) != 3 {
		t.Fatalf("the silent walk did not end: %d pending, %d timers, wire %v", a.pendingFetches(), fc.clk.Pending()-timers, fc.wire)
	}

	fc.wire = nil
	a.RequestData(meta.HashData([]byte("never heard of")))
	if a.pendingFetches() != 0 || len(fc.wire) != 0 {
		t.Fatalf("an unknown item: %d pending, wire %v", a.pendingFetches(), fc.wire)
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.fetch.directed") != 6 || snap.Counter("livenode.fetch.next_candidate") != 4 {
		t.Fatalf("counters: %v", snap.Counters)
	}
}

// (f) A peer whose hellos claim to be every holder and who answers with
// other bytes costs the fetch: its answer fails the hash, so the walk moves
// past it and, with nobody left, ends. Nothing is stored, and once the real
// node's next hello takes its index back, the next request is served.
func TestFetchForgedBindingOnlyDelays(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	id := fc.item(t, 0, "the real bytes", 3, []int{1, 2}, 1)
	forged := 0
	var evil *fakeEP
	evil = fc.fn.endpoint("evil", p2p.HandlerFunc(func(from string, ft byte, payload []byte) {
		if ft == p2p.FrameDataRequest {
			forged++
			evil.Send(from, p2p.FrameData, append(append([]byte(nil), payload[:32]...), "other bytes"...))
		}
	}))
	if err := a.net.Connect("evil"); err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{1, 2, 3} {
		a.handleHello("evil", hello(i))
	}
	// The table is one-to-one, so evil holds index 3 and 1 and 2 are blank:
	// take the holder's index too, as a forger who arrived last would.
	a.handleHello("evil", hello(1))
	got := fc.gotData(0)

	a.RequestData(id)
	if forged != 1 || a.HasData(id) || len(got) != 0 || a.pendingFetches() != 0 {
		t.Fatalf("forged answer: asked evil %d times, stored=%v, OnData %v, %d pending", forged, a.HasData(id), got, a.pendingFetches())
	}
	// n1 links again: its index is its own again.
	a.handleHello("n1", hello(1))
	a.mu.Lock()
	addr := a.addrOf[1]
	a.mu.Unlock()
	if addr != "n1" {
		t.Fatalf("index 1 bound to %q after the real node's hello", addr)
	}
	a.RequestData(id)
	if forged != 1 || !a.HasData(id) || got[id] != "the real bytes" {
		t.Fatalf("the request after the real hello: asked evil %d times, OnData %v", forged, got)
	}
	if c, ok := a.store.AppendData(nil, id); !ok || string(c) != "the real bytes" {
		t.Fatalf("stored %q", c)
	}
}

// (g) Malformed requests are dropped unanswered: a request is the 32-byte ID
// and one mark byte, 0 or repairMark. The holder answers whoever sent it.
func TestFetchMalformedRequestDropped(t *testing.T) {
	fc := newFetchCluster(t, 3, nil)
	a := fc.nodes[0]
	content := []byte("held")
	id := meta.HashData(content)
	if err := a.store.PutData(id, content); err != nil {
		t.Fatal(err)
	}
	good := dataRequest(id, 0)
	for _, p := range [][]byte{nil, id[:], append(good[:33:33], 0), id[:8], dataRequest(id, repairMark+1), dataRequest(id, 0xFF)} {
		a.handleFrame("n1", p2p.FrameDataRequest, p)
	}
	if len(fc.wire) != 0 {
		t.Fatalf("malformed requests were answered: %v", fc.wire)
	}
	a.handleFrame("n2", p2p.FrameDataRequest, good)
	if ans := fc.sent(p2p.FrameData); len(ans) != 1 || ans[0].to != "n2" {
		t.Fatalf("well-formed request not answered to its sender: %v", fc.wire)
	}
}

// (h) With repair on there is still one table: a hello's address is what a
// fetch of any purpose asks, and it follows a re-binding.
func TestFetchAndRepairShareAddressTable(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	it := testItem(a.idents()[2], "shared table", 0)
	it.StoringNodes = []int{1}
	a.mu.Lock()
	a.eng.AddLocal(it)
	a.mu.Unlock()
	both := func() (repair, consumer []string) {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.fetchCandidatesLocked(it.ID, repairFetch), a.fetchCandidatesLocked(it.ID, consumerFetch)
	}
	fc.forget(0, 1, 2)
	if r, c := both(); r != nil || c != nil {
		t.Fatalf("before any binding: repair candidates %v, consumer candidates %v", r, c)
	}
	a.handleHello("n1", hello(1))
	if r, c := both(); !reflect.DeepEqual(r, []string{"n1"}) || !reflect.DeepEqual(c, r) {
		t.Fatalf("after a hello: repair candidates %v, consumer candidates %v", r, c)
	}
	a.handleHello("n1-moved", hello(1))
	if r, c := both(); !reflect.DeepEqual(r, []string{"n1-moved"}) || !reflect.DeepEqual(c, r) {
		t.Fatalf("after re-binding: repair candidates %v, consumer candidates %v", r, c)
	}
	// Passive liveness reads the same table.
	a.mu.Lock()
	_, mapped := a.idxOf["n1"]
	a.mu.Unlock()
	if mapped {
		t.Fatal("the old address still maps to a roster index")
	}
}

// Content is stored only when it was asked for AND hashes to its ID. An
// answer that fails the hash moves the walk on at once if it came from the
// candidate asked last, and is dropped if it came from anyone else. The
// empty item's bare ID hashes to its ID, so it is stored as the content.
func TestUnsolicitedDataNotStored(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	fc.know(0, 1, 2)
	fc.silence(1, 2)
	got := fc.gotData(0)
	content := "nobody asked for this"
	id := fc.item(t, 0, content, 2, []int{1})
	frame := append(id[:], content...)
	requests := func() int { return len(fc.sent(p2p.FrameDataRequest)) }

	a.handleFrame("n1", p2p.FrameData, frame)
	if a.HasData(id) || len(got) != 0 {
		t.Fatalf("unsolicited frame was stored (OnData %v)", got)
	}
	// Asked for, but the bytes do not hash to the ID: still nothing. From a
	// node that was not asked, the walk stays where it is.
	a.RequestData(id) // asks n1
	a.handleFrame("n2", p2p.FrameData, append(id[:], "something else"...))
	if a.HasData(id) || len(got) != 0 || a.pendingFetches() != 1 || requests() != 1 {
		t.Fatalf("a corrupt answer from a node not asked: stored=%v, %d pending, %d requests", a.HasData(id), a.pendingFetches(), requests())
	}
	// From the node asked last, it moves the walk on at once.
	a.handleFrame("n1", p2p.FrameData, append(id[:], "something else"...))
	if a.HasData(id) || len(got) != 0 || a.pendingFetches() != 1 || requests() != 2 || fc.wire[len(fc.wire)-1].to != "n2" {
		t.Fatalf("a corrupt answer from the asked holder: stored=%v, %d pending, wire %v", a.HasData(id), a.pendingFetches(), fc.wire)
	}
	a.handleFrame("n1", p2p.FrameData, frame)
	if !a.HasData(id) || got[id] != content || a.pendingFetches() != 0 {
		t.Fatalf("solicited answer not stored: OnData %v", got)
	}
	// A repair fetch solicits like any other once it is pending, and its
	// answer completes the repair.
	other := "repair wants this"
	oid := fc.item(t, 0, other, 2, []int{1})
	a.requestData(oid, repairFetch)
	a.handleFrame("n1", p2p.FrameData, append(oid[:], other...))
	if !a.HasData(oid) || got[oid] != other || a.pendingFetches() != 0 || counter(a.reg, "livenode.repair.completed") != 1 {
		t.Fatalf("repair answer not stored: OnData %v", got)
	}
	// The empty item: its bare ID is its content, whoever sends it.
	eid := fc.item(t, 0, "", 2, []int{1})
	a.RequestData(eid)
	a.handleFrame("n2", p2p.FrameData, eid[:])
	if c, ok := got[eid]; !a.HasData(eid) || !ok || c != "" || a.pendingFetches() != 0 {
		t.Fatalf("the empty item's bare ID was not stored: OnData %v", got)
	}
}

// Re-replication pays from the repair budget and is counted as repair
// traffic, whoever ends up serving it. Node 2 died; the chain re-assigned its
// item to node 0, next to node 1: node 0 adopts the announcement and the
// re-announcement through its engine, and the next probe tick's self-audit
// finds the item missing and launches the repair fetch. The producer (node 3,
// not a storing node) and node 1 both hold the bytes, and the item is larger
// than anybody's bucket (repairRate bytes). The producer's bucket is in debt:
// asked first, it stays silent and counts a throttle. The fetch moves on to
// node 1 after syncTimeout, whose full bucket lets the oversized answer
// through and goes into debt for it; request and answer bytes land in
// repair_bytes on both ends and in nobody's data_bytes.
func TestRepairFetchPaysBudgetAndCountsAsRepair(t *testing.T) {
	const rate = repairRate
	fc := newFetchCluster(t, 4, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a, holder, producer := fc.nodes[0], fc.nodes[1], fc.nodes[3]
	fc.know(0, 1, 3)
	content := "re-replicated under the budget: " + strings.Repeat("x", rate)
	charged := repairFrameOverhead + len(content)
	if charged <= rate {
		t.Fatalf("the answer (%d B) must not fit a bucket of %d B", charged, rate)
	}
	it := testItem(a.idents()[3], content, 0)
	it.StoringNodes = []int{1, 2}
	a.winWith(t, it)
	moved := it.Clone()
	moved.StoringNodes = []int{1, 0}
	a.winWith(t, moved)
	for _, h := range []int{1, 3} {
		if err := fc.nodes[h].store.PutData(it.ID, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	producer.mu.Lock()
	if !producer.repair.lim.Allow(producer.now(), 100*rate) {
		t.Fatal("a full bucket refused an oversized frame")
	}
	producer.mu.Unlock()
	got := fc.gotData(0)
	hellos := make([]uint64, len(fc.nodes)) // data_bytes the hellos booked
	for i, n := range fc.nodes {
		hellos[i] = counter(n.reg, "livenode.wire.data_bytes")
	}

	// One repair tick everywhere: the blocks left the clock between two.
	fc.clk.Advance(a.cfg.RepairProbeEvery - a.now()%a.cfg.RepairProbeEvery)
	if want := []wireFrame{{"n0", "n3", p2p.FrameDataRequest}}; !reflect.DeepEqual(fc.wire, want) {
		t.Fatalf("after the tick the wire carried %v, want %v", fc.wire, want)
	}
	if v := counter(producer.reg, "livenode.repair.throttled"); v != 1 {
		t.Fatalf("holder over its budget: repair.throttled = %d, want 1", v)
	}
	fc.clk.Advance(syncTimeout)
	want := []wireFrame{{"n0", "n3", p2p.FrameDataRequest}, {"n0", "n1", p2p.FrameDataRequest}, {"n1", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) || got[it.ID] != content {
		t.Fatalf("wire carried %v, want %v (OnData %d items)", fc.wire, want, len(got))
	}

	rereplication := func(n *syncTestNode) uint64 {
		snap := n.reg.Snapshot()
		return snap.Counter("livenode.wire.repair_bytes") - snap.Counter("livenode.wire.heartbeat_bytes")
	}
	if sent, want := rereplication(a), uint64(2*(33+5)); sent != want {
		t.Errorf("requester counted %d re-replication bytes, want two 33-byte requests = %d", sent, want)
	}
	if sent, want := rereplication(holder), uint64(32+len(content)+5); sent != want {
		t.Errorf("holder counted %d re-replication bytes, want the answer's %d", sent, want)
	}
	for i, n := range fc.nodes {
		if v := counter(n.reg, "livenode.wire.data_bytes") - hellos[i]; v != 0 {
			t.Errorf("node %d counted %d bytes of a repair fetch as data_bytes", i, v)
		}
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.repair.enqueued") != 1 || snap.Counter("livenode.repair.completed") != 1 {
		t.Errorf("repair counters at the requester: %v", snap.Counters)
	}
	if h := snap.Histogram("livenode.repair.fetch_ns"); h.Count != 1 || h.Max != int64(syncTimeout) {
		t.Errorf("repair.fetch_ns %+v, want one sample of %v (launch to verified content)", h, syncTimeout)
	}
	if h := snap.Histogram("livenode.data.fetch_ns"); h.Count != 0 {
		t.Errorf("data.fetch_ns counted %d samples, want none: a repair fetch times into repair.fetch_ns alone", h.Count)
	}
	// The holder's bucket paid for the whole answer: it is in debt by what did
	// not fit, and good again once the refill has covered that.
	holder.mu.Lock()
	lim, now := holder.repair.lim, holder.now()
	inDebt, paidOff := !lim.Allow(now, 1), lim.Allow(now+time.Duration(charged)*time.Second/rate, rate/2)
	holder.mu.Unlock()
	if !inDebt || !paidOff {
		t.Errorf("holder's limiter after the oversized answer: in debt=%v, paid off %d B later=%v", inDebt, charged, paidOff)
	}
	if a.pendingFetches() != 0 {
		t.Errorf("%d fetches left after the repair", a.pendingFetches())
	}
}

// A consumer's fetch that is still waiting on a candidate is not the repair
// plane's to restart: a launch for the same item leaves its start, cursor,
// purpose and timer alone and rides on it. Once its walk has ended the next
// launch starts a repair fetch of its own.
func TestRepairLaunchLeavesRunningFetchAlone(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	fc.know(0, 1, 2)
	fc.silence(1, 2)
	id := fc.item(t, 0, "a consumer is reading this", 2, []int{0, 1}) // nobody holds the bytes
	a.RequestData(id)
	entry := func() *pendingFetch {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.fetches.pending[id]
	}
	running := entry()
	if running == nil || running.attempt == nil {
		t.Fatalf("consumer fetch %+v, want one waiting on its first candidate", running)
	}
	start, asked, timers := running.start, len(fc.wire), fc.clk.Pending()

	fc.clk.Advance(syncTimeout / 2)
	a.requestData(id, repairFetch)
	if after := entry(); after != running || after.repair || after.start != start || after.next != 1 ||
		len(fc.wire) != asked || fc.clk.Pending() != timers {
		t.Fatalf("the launch disturbed a running consumer fetch: %+v, wire %v", after, fc.wire[asked:])
	}

	fc.clk.Advance(2 * syncTimeout) // n1, then the producer, stayed silent
	if after := entry(); after != nil {
		t.Fatalf("exhausted consumer fetch %+v, want it ended", after)
	}
	a.requestData(id, repairFetch)
	if after := entry(); after == nil || !after.repair || !reflect.DeepEqual(after.cands, []string{"n2", "n1"}) {
		t.Fatalf("the next launch did not start a repair fetch: %+v", after)
	}
}

// The probe tick's self-audit launches a repair fetch only where nobody is
// fetching. A placement fetch still waiting on a candidate is left alone; once
// its walk has ended, a launch fetches the item afresh, under RepairWorkers
// (1 here). Ticks are driven by hand: the tick timer is an hour, and nobody
// turns suspect within the test.
func TestRepairAuditLaunchesWhereNobodyFetches(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) {
		cfg.RepairWorkers = 1
		cfg.RepairProbeEvery = time.Hour
		cfg.RepairSuspectAfter, cfg.RepairHysteresis = 24*time.Hour, 24*time.Hour
	})
	a := fc.nodes[0]
	fc.know(0, 1, 2)
	fc.silence(1, 2)
	var ids []meta.DataID
	var items []*meta.Item
	for _, content := range []string{"assigned, and nobody has the bytes", "assigned as well"} {
		it := testItem(a.idents()[2], content, 0)
		it.StoringNodes = []int{0, 1}
		items, ids = append(items, it), append(ids, it.ID)
	}
	slices.SortFunc(ids, func(x, y meta.DataID) int { return bytes.Compare(x[:], y[:]) })
	first, second := ids[0], ids[1]
	a.winWith(t, items...)
	fc.clk.Advance(0) // the placement fetches ask the producer, n2
	entry := func(id meta.DataID) *pendingFetch {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.fetches.pending[id]
	}
	launched := func() uint64 { return counter(a.reg, "livenode.repair.enqueued") }
	p1, p2 := entry(first), entry(second)
	if p1 == nil || p1.repair || p1.attempt == nil || p2 == nil || len(fc.wire) != 2 {
		t.Fatalf("placement fetches %+v %+v, wire %v: want both waiting on the producer", p1, p2, fc.wire)
	}

	a.repairTick()
	if entry(first) != p1 || entry(second) != p2 || len(fc.wire) != 2 || launched() != 0 {
		t.Fatalf("the audit disturbed placement fetches that are still waiting: wire %v", fc.wire)
	}

	fc.clk.Advance(2 * syncTimeout) // n2, then n1, stayed silent: both walks end
	if entry(first) != nil || entry(second) != nil {
		t.Fatal("placement fetches did not run out of candidates")
	}
	fc.wire = nil
	a.repairTick()
	r1 := entry(first)
	if r1 == nil || !r1.repair || !reflect.DeepEqual(r1.cands, []string{"n2", "n1"}) ||
		entry(second) != nil || launched() != 1 || !reflect.DeepEqual(fc.wire, []wireFrame{{"n0", "n2", p2p.FrameDataRequest}}) {
		t.Fatalf("after the tick: first %+v, wire %v, %d launched; want one repair fetch asking the producer", r1, fc.wire, launched())
	}
}

// reassignToFirst puts items on node 0 the way repair does: a first block
// places them on nodes 1 and 2, a second re-announces them onto 0 and 1. With
// repair on node 0 leaves them to its self-audit, so no placement fetch runs.
func (fc *fetchCluster) reassignToFirst(t *testing.T, items ...*meta.Item) {
	t.Helper()
	a := fc.nodes[0]
	moved := make([]*meta.Item, len(items))
	for k, it := range items {
		it.StoringNodes = []int{1, 2}
		moved[k] = it.Clone()
		moved[k].StoringNodes = []int{0, 1}
	}
	a.winWith(t, items...)
	a.winWith(t, moved...)
}

// An assigned item nobody can serve does not keep the repair plane from the
// rest. With one worker, the audit first launches the item that comes first
// in ID order, which every holder has lost; its fetch holds the slot while the
// producer, asked first, stays silent, and ends when node 1 refuses it, right
// after the second tick. The tick that frees the slot starts after that item,
// so the other item, which node 1 holds, is repaired within two ticks of the
// walk's end. Started from the front instead, every audit would relaunch the
// lost item and the other would never get the slot.
func TestRepairAuditRoundRobinsPastUnservableItem(t *testing.T) {
	fc := newFetchCluster(t, 4, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	fc.know(0, 1, 3)
	fc.silence(3)
	content := map[meta.DataID]string{}
	var items []*meta.Item
	for _, c := range []string{"lost by every holder", "still held by node 1"} {
		it := testItem(a.idents()[3], c, 0)
		content[it.ID], items = c, append(items, it)
	}
	slices.SortFunc(items, func(x, y *meta.Item) int { return bytes.Compare(x.ID[:], y.ID[:]) })
	lost, held := items[0].ID, items[1].ID
	fc.reassignToFirst(t, items...)
	if err := fc.nodes[1].store.PutData(held, []byte(content[held])); err != nil {
		t.Fatal(err)
	}
	entry := func(id meta.DataID) *pendingFetch {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.fetches.pending[id]
	}
	tick := func() { fc.clk.Advance(a.cfg.RepairProbeEvery - a.now()%a.cfg.RepairProbeEvery) }

	tick()
	r := entry(lost)
	if r == nil || !r.repair || entry(held) != nil {
		t.Fatalf("first tick: lost %+v, held %+v; want one repair fetch, for the first item", r, entry(held))
	}
	tick()
	if entry(lost) != nil || entry(held) != nil || counter(a.reg, "livenode.repair.enqueued") != 1 {
		t.Fatal("tick 2: the lost item's fetch must hold the only slot until its walk ends")
	}
	tick() // the slot is free; this tick launches the other item
	tick()
	if !a.HasData(held) {
		t.Fatalf("the held item was not repaired within two ticks of the walk's end (%d launched)", counter(a.reg, "livenode.repair.enqueued"))
	}
	if counter(a.reg, "livenode.repair.completed") != 1 {
		t.Fatal("the held item came back without a repair fetch")
	}
}

// Repair fetches in flight never exceed RepairWorkers, however many assigned
// items are missing, and the cursor walks every one of them in turn: five
// items nobody can serve from two silent holders, two workers, twelve ticks.
func TestRepairAuditHoldsWorkerBound(t *testing.T) {
	const workers = 2
	fc := newFetchCluster(t, 4, func(cfg *Config) { cfg.RepairWorkers = workers })
	a := fc.nodes[0]
	fc.know(0, 1, 3)
	fc.silence(1, 3)
	var items []*meta.Item
	for k := 0; k < 5; k++ {
		items = append(items, testItem(a.idents()[3], fmt.Sprintf("lost item %d", k), 0))
	}
	fc.reassignToFirst(t, items...)
	launched := map[meta.DataID]bool{}
	peak := 0
	for k := 0; k < 12; k++ {
		fc.clk.Advance(a.cfg.RepairProbeEvery - a.now()%a.cfg.RepairProbeEvery)
		a.mu.Lock()
		inFlight := 0
		for id, pf := range a.fetches.pending {
			if pf.repair {
				inFlight++
				launched[id] = true
			}
		}
		a.mu.Unlock()
		if inFlight > workers {
			t.Fatalf("tick %d: %d repair fetches in flight, want at most %d", k, inFlight, workers)
		}
		peak = max(peak, inFlight)
	}
	if peak != workers || len(launched) != len(items) {
		t.Fatalf("peak %d in flight, %d of %d items launched; want %d and all", peak, len(launched), len(items), workers)
	}
}

// Close stops the timers of every pending fetch, repair fetches included.
func TestCloseStopsFetchTimers(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	fc.know(0, 1, 2)
	fc.silence(1, 2)
	timers := fc.clk.Pending()
	a.RequestData(fc.item(t, 0, "silent holder", 2, []int{1}))
	a.requestData(fc.item(t, 0, "repair asks a silent holder", 2, []int{0, 1}), repairFetch)
	if got := fc.clk.Pending() - timers; got != 2 || a.pendingFetches() != 2 {
		t.Fatalf("%d fetch timers armed for %d fetches, want 2 attempts", got, a.pendingFetches())
	}
	a.Close()
	if a.pendingFetches() != 0 || fc.clk.Pending() > timers {
		t.Fatalf("Close left %d fetches and %d timers", a.pendingFetches(), fc.clk.Pending()-timers)
	}
	a.RequestData(meta.HashData([]byte("after close")))
	if a.pendingFetches() != 0 {
		t.Fatal("a closed node registered a fetch")
	}
}

// Requests for the same and for different items from several goroutines,
// while peers' requests are served and their hellos re-bind the table, and
// half the items are missing at the first holder asked, which nacks:
// everything is served and nothing stays pending (run under -race).
func TestFetchConcurrentRequests(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	fc.fn.setDrop(nil) // the frame recorder is not synchronized
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	ids := make([]meta.DataID, 8)
	for i := range ids {
		ids[i] = fc.item(t, 0, fmt.Sprintf("concurrent %d", i), 3, []int{1, 2}, 2-i%2, 2)
	}
	var mu sync.Mutex
	delivered := make(map[meta.DataID]int)
	a.SetOnData(func(id meta.DataID, _ []byte) {
		mu.Lock()
		delivered[id]++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, id := range ids {
				a.RequestData(id)
				a.handleHello(fmt.Sprintf("n%d", 1+g%3), hello(uint64(1+g%3)))
				a.handleFrame(fmt.Sprintf("n%d", 1+g%3), p2p.FrameDataRequest, dataRequest(id, 0))
			}
		}()
	}
	wg.Wait()
	for _, id := range ids {
		if delivered[id] == 0 || !a.HasData(id) {
			t.Fatalf("item %s not delivered", id.Short())
		}
	}
	if a.pendingFetches() != 0 {
		t.Fatalf("%d fetches still pending", a.pendingFetches())
	}
}
