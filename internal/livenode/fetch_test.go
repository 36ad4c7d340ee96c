package livenode

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/meta"
	"repro/internal/p2p"
	"repro/internal/repair"
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

// liveTimers counts the timers the clock still has to fire.
func (c *fakeClock) liveTimers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	live := 0
	for _, t := range c.timers {
		if !t.done {
			live++
		}
	}
	return live
}

// wireFrame is one frame the fabric was asked to carry.
type wireFrame struct {
	from, to string
	ft       byte
}

// fetchCluster is size nodes "n0".."n<size-1>" with one roster, one fake
// clock and a full transport mesh; nobody mines and nobody knows anybody's
// roster index yet. wire records the data-plane frames.
type fetchCluster struct {
	fn    *fakeNet
	clk   *fakeClock
	nodes []*syncTestNode
	wire  []wireFrame
}

func newFetchCluster(t *testing.T, size int, mutate func(cfg *Config)) *fetchCluster {
	t.Helper()
	fc := &fetchCluster{fn: newFakeNet()}
	epoch := time.Unix(1700000000, 0)
	fc.clk = newFakeClock(epoch)
	idents, accounts := testRoster(size)
	for i := 0; i < size; i++ {
		// The helper's own roster has three nodes; every field derived from
		// its index argument is replaced here.
		n := newGossipTestNode(t, fc.fn, fc.clk, fmt.Sprintf("n%d", i), 0, epoch, func(cfg *Config) {
			cfg.Identity, cfg.Accounts = idents[i], accounts
			cfg.FetchTimeout = 30 * time.Second
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
		return false
	})
	return fc
}

// know teaches node at the transport addresses of the given roster nodes.
func (fc *fetchCluster) know(at int, nodes ...int) {
	n := fc.nodes[at]
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, i := range nodes {
		n.bindAddrLocked(i, fc.nodes[i].Addr())
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

func dataRequest(id meta.DataID, idx uint32) []byte {
	return binary.BigEndian.AppendUint32(id[:], idx)
}

// (a) The first candidate holds the bytes: one request, one answer, no
// timer left behind.
func TestFetchAsksOneHolder(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "one holder is enough", 3, []int{1, 2}, 1, 2, 3)
	got := fc.gotData(0)
	timers := fc.clk.liveTimers()

	a.RequestData(id)

	want := []wireFrame{{"n0", "n1", p2p.FrameDataRequest}, {"n1", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) {
		t.Fatalf("wire carried %v, want %v", fc.wire, want)
	}
	if got[id] != "one holder is enough" || !a.HasData(id) {
		t.Fatalf("content not delivered: %q", got[id])
	}
	if a.pendingFetches() != 0 || fc.clk.liveTimers() != timers {
		t.Fatalf("served fetch left %d entries and %d timers behind", a.pendingFetches(), fc.clk.liveTimers()-timers)
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.fetch.directed") != 1 || snap.Counter("livenode.fetch.broadcasts") != 0 ||
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
// producer last; a placement fetch asks the producer first. Unknown
// addresses, this node itself and a producer that also stores are skipped.
func TestFetchCandidateOrder(t *testing.T) {
	fc := newFetchCluster(t, 5, nil)
	cands := func(at int, id meta.DataID, placement bool) []string {
		n := fc.nodes[at]
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.fetchCandidatesLocked(id, placement)
	}
	for _, at := range []int{0, 3} {
		fc.know(at, 0, 1, 2, 3, 4)
	}
	id0 := fc.item(t, 0, "ordered", 4, []int{1, 2})
	id3 := fc.item(t, 3, "ordered", 4, []int{1, 2})
	for _, tc := range []struct {
		at        int
		id        meta.DataID
		placement bool
		want      []string
	}{
		{0, id0, false, []string{"n1", "n2", "n4"}},
		{3, id3, false, []string{"n2", "n1", "n4"}}, // (k+3) mod 2: the other replica first
		{0, id0, true, []string{"n4", "n1", "n2"}},
		{0, fc.item(t, 0, "producer stores too", 1, []int{0, 1, 2}), false, []string{"n1", "n2"}},
		{0, fc.item(t, 0, "pooled, not placed yet", 2, nil), false, []string{"n2"}},
		{0, meta.HashData([]byte("never heard of")), false, nil},
	} {
		if got := cands(tc.at, tc.id, tc.placement); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("node %d placement=%v: candidates %v, want %v", tc.at, tc.placement, got, tc.want)
		}
	}
	// A node with an empty table has nobody to ask.
	if got := cands(2, fc.item(t, 2, "ordered", 4, []int{0, 1}), false); got != nil {
		t.Errorf("candidates %v from an empty address table", got)
	}
}

// (b) The first candidate is alive but lacks the bytes: the second is asked
// after SyncTimeout, and the latency counts from the first request.
func TestFetchSilentCandidateMovesOn(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "second replica has it", 3, []int{1, 2}, 2)

	a.RequestData(id)
	if len(fc.wire) != 1 || fc.wire[0].to != "n1" || a.HasData(id) {
		t.Fatalf("before the timeout the wire carried %v", fc.wire)
	}
	fc.clk.Advance(a.cfg.SyncTimeout - time.Millisecond)
	if len(fc.wire) != 1 {
		t.Fatalf("moved on before SyncTimeout: %v", fc.wire)
	}
	fc.clk.Advance(time.Millisecond)
	want := []wireFrame{{"n0", "n1", p2p.FrameDataRequest}, {"n0", "n2", p2p.FrameDataRequest}, {"n2", "n0", p2p.FrameData}}
	if !reflect.DeepEqual(fc.wire, want) || !a.HasData(id) {
		t.Fatalf("wire carried %v, want %v", fc.wire, want)
	}
	snap := a.reg.Snapshot()
	if h := snap.Histogram("livenode.data.fetch_ns"); h.Count != 1 || h.Max != int64(a.cfg.SyncTimeout) {
		t.Fatalf("fetch latency %+v, want one sample of %v", h, a.cfg.SyncTimeout)
	}
	if snap.Counter("livenode.fetch.directed") != 2 || snap.Counter("livenode.fetch.next_candidate") != 1 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	fc.clk.Advance(time.Hour)
	if v := counter(a.reg, "livenode.data.fetch_expired"); v != 0 || len(fc.wire) != 3 {
		t.Fatalf("a served fetch went on: %d expired, wire %v", v, fc.wire)
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

// (d) Every candidate stays silent: one broadcast, then the FetchTimeout
// expiry. A repeated RequestData neither re-arms the expiry nor restarts
// the cursor; once the fetch broadcasts, it repeats the broadcast.
func TestFetchExhaustedBroadcastsThenExpires(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	id := fc.item(t, 0, "nobody has it", 3, []int{1, 2})
	st := a.cfg.SyncTimeout

	a.RequestData(id)
	fc.clk.Advance(st)
	a.RequestData(id) // second candidate is being asked: nothing to do
	if got := fc.sent(p2p.FrameDataRequest); len(got) != 2 || got[1].to != "n2" {
		t.Fatalf("a repeated request disturbed the cursor: %v", got)
	}
	fc.clk.Advance(2 * st)
	if got := len(fc.sent(p2p.FrameDataRequest)); got != 3+3 {
		t.Fatalf("%d requests after all candidates timed out, want 3 directed + 1 broadcast to 3 peers", got)
	}
	fc.clk.Advance(5 * st)
	if got := len(fc.sent(p2p.FrameDataRequest)); got != 6 {
		t.Fatalf("the broadcast repeated on its own: %d requests", got)
	}
	a.RequestData(id)
	if got := len(fc.sent(p2p.FrameDataRequest)); got != 9 {
		t.Fatalf("a repeated request in the broadcast phase sent %d frames, want 3 more", got-6)
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.fetch.directed") != 3 || snap.Counter("livenode.fetch.next_candidate") != 2 ||
		snap.Counter("livenode.fetch.broadcasts") != 2 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	// 8 s have passed; the expiry still stands where the FIRST request put it.
	fc.clk.Advance(a.cfg.FetchTimeout - 8*st - time.Millisecond)
	if a.pendingFetches() != 1 {
		t.Fatal("fetch expired early")
	}
	fc.clk.Advance(time.Millisecond)
	if a.pendingFetches() != 0 || counter(a.reg, "livenode.data.fetch_expired") != 1 {
		t.Fatalf("fetch not expired at FetchTimeout: %d pending, %d expired",
			a.pendingFetches(), counter(a.reg, "livenode.data.fetch_expired"))
	}
	// The broadcast reaches holders outside the candidate list.
	if err := fc.nodes[3].store.PutData(id, []byte("nobody has it")); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.addrOf[3], a.idxOf = "", map[string]int{"n1": 1, "n2": 2}
	a.mu.Unlock()
	a.RequestData(id)
	fc.clk.Advance(2 * st)
	if !a.HasData(id) {
		t.Fatal("the last-resort broadcast did not fetch from a holder outside the candidates")
	}
}

// (e) An item in neither pool nor chain is broadcast at once, and any
// holder's answer completes it.
func TestFetchUnknownItemBroadcasts(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	content := []byte("known to its holders only")
	id := meta.HashData(content)
	for _, h := range []int{2, 3} {
		if err := fc.nodes[h].store.PutData(id, content); err != nil {
			t.Fatal(err)
		}
	}
	got := fc.gotData(0)
	a.RequestData(id)
	if req, ans := fc.sent(p2p.FrameDataRequest), fc.sent(p2p.FrameData); len(req) != 3 || len(ans) != 2 {
		t.Fatalf("wire carried %v, want 3 requests and both holders' answers", fc.wire)
	}
	if len(got) != 1 || got[id] != string(content) {
		t.Fatalf("OnData got %v", got)
	}
	snap := a.reg.Snapshot()
	if snap.Counter("livenode.fetch.broadcasts") != 1 || snap.Counter("livenode.fetch.directed") != 0 {
		t.Fatalf("counters: %v", snap.Counters)
	}
}

// (f) Bindings are learned from the 36-byte request, follow the node to a
// new address, and ignore indices that cannot be a peer's.
func TestFetchRequestTeachesAddress(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	a := fc.nodes[0]
	id := meta.HashData([]byte("whatever"))
	table := func() ([]string, map[string]int) {
		a.mu.Lock()
		defer a.mu.Unlock()
		inv := make(map[string]int, len(a.idxOf))
		for k, v := range a.idxOf {
			inv[k] = v
		}
		return append([]string(nil), a.addrOf...), inv
	}
	check := func(when string, wantAddr []string, wantIdx map[string]int) {
		t.Helper()
		addr, idx := table()
		if !reflect.DeepEqual(addr, wantAddr) || !reflect.DeepEqual(idx, wantIdx) {
			t.Fatalf("%s: table %v / %v, want %v / %v", when, addr, idx, wantAddr, wantIdx)
		}
	}
	a.handleFrame("x", p2p.FrameDataRequest, dataRequest(id, 2))
	check("first request", []string{"", "", "x", ""}, map[string]int{"x": 2})
	a.handleFrame("y", p2p.FrameDataRequest, dataRequest(id, 2))
	check("same index, new address", []string{"", "", "y", ""}, map[string]int{"y": 2})
	a.handleFrame("z", p2p.FrameDataRequest, dataRequest(id, 0)) // this node's own index
	a.handleFrame("z", p2p.FrameDataRequest, dataRequest(id, 4)) // past the roster
	a.handleFrame("z", p2p.FrameDataRequest, dataRequest(id, ^uint32(0)))
	check("self and out-of-range indices", []string{"", "", "y", ""}, map[string]int{"y": 2})
	// One address speaks for one node: claiming every index keeps the last.
	for i := uint32(0); i < 4; i++ {
		a.handleFrame("y", p2p.FrameDataRequest, dataRequest(id, i))
	}
	check("one address claiming every index", []string{"", "", "", "y"}, map[string]int{"y": 3})
	if g := a.reg.Snapshot().Gauge("livenode.roster.bound"); g != 1 {
		t.Fatalf("roster.bound = %d, want 1", g)
	}
}

// (f, continued) A peer that claims to be every holder and answers with
// other bytes delays the fetch by one SyncTimeout and changes nothing that
// is stored; the real node's next request takes its index back.
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
	fc.know(0, 1, 2, 3)
	for _, i := range []uint32{1, 2, 3} {
		a.handleFrame("evil", p2p.FrameDataRequest, dataRequest(id, i))
	}
	// The table is one-to-one, so evil holds index 3 and 1 and 2 are blank:
	// take the holder's index too, as a forger who arrived last would.
	a.handleFrame("evil", p2p.FrameDataRequest, dataRequest(id, 1))
	got := fc.gotData(0)

	a.RequestData(id)
	if forged != 1 || a.HasData(id) || len(got) != 0 {
		t.Fatalf("forged answer: asked evil %d times, stored=%v, OnData %v", forged, a.HasData(id), got)
	}
	fc.clk.Advance(a.cfg.SyncTimeout)
	if !a.HasData(id) || got[id] != "the real bytes" {
		t.Fatalf("fetch did not recover through the broadcast: OnData %v", got)
	}
	if c, ok := a.store.GetData(id); !ok || string(c) != "the real bytes" {
		t.Fatalf("stored %q", c)
	}
	// n1 asks for anything: its index is its own again.
	fc.nodes[1].RequestData(meta.HashData([]byte("anything")))
	a.mu.Lock()
	addr := a.addrOf[1]
	a.mu.Unlock()
	if addr != "n1" {
		t.Fatalf("index 1 bound to %q after the real node's request", addr)
	}
}

// (g) Malformed requests are dropped: no answer, no binding.
func TestFetchMalformedRequestDropped(t *testing.T) {
	fc := newFetchCluster(t, 3, nil)
	a := fc.nodes[0]
	content := []byte("held")
	id := meta.HashData(content)
	if err := a.store.PutData(id, content); err != nil {
		t.Fatal(err)
	}
	good := dataRequest(id, 1)
	for _, p := range [][]byte{nil, id[:], good[:35], append(good[:36:36], 0), id[:8]} {
		a.handleFrame("n1", p2p.FrameDataRequest, p)
	}
	a.mu.Lock()
	bound := len(a.idxOf)
	a.mu.Unlock()
	if len(fc.wire) != 0 || bound != 0 {
		t.Fatalf("malformed requests were answered (%v) or bound (%d)", fc.wire, bound)
	}
	a.handleFrame("n1", p2p.FrameDataRequest, good)
	if ans := fc.sent(p2p.FrameData); len(ans) != 1 || ans[0].to != "n1" {
		t.Fatalf("well-formed request not answered: %v", fc.wire)
	}
}

// (h) With repair on there is still one table: a probed node's address is
// what both the repair driver and the directed fetch use, and both follow a
// re-binding.
func TestFetchAndRepairShareAddressTable(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	it := testItem(a.idents()[2], "shared table", 0)
	it.StoringNodes = []int{1}
	a.mu.Lock()
	a.eng.AddLocal(it)
	a.repair.idx.Apply(it)
	a.mu.Unlock()
	both := func() (string, []string) {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.pickProviderLocked(it.ID, a.now()), a.fetchCandidatesLocked(it.ID, false)
	}
	if p, c := both(); p != "" || c != nil {
		t.Fatalf("before any binding: provider %q, candidates %v", p, c)
	}
	a.handleFrame("n1", p2p.FrameRepairProbe, binary.BigEndian.AppendUint32(nil, 1))
	if p, c := both(); p != "n1" || !reflect.DeepEqual(c, []string{"n1"}) {
		t.Fatalf("after a probe: provider %q, candidates %v", p, c)
	}
	a.handleFrame("n1-moved", p2p.FrameDataRequest, dataRequest(it.ID, 1))
	if p, c := both(); p != "n1-moved" || !reflect.DeepEqual(c, []string{"n1-moved"}) {
		t.Fatalf("after re-binding: provider %q, candidates %v", p, c)
	}
	// Passive liveness reads the same table.
	a.mu.Lock()
	_, mapped := a.idxOf["n1"]
	a.mu.Unlock()
	if mapped {
		t.Fatal("the old address still maps to a roster index")
	}
}

// Content is stored only when it was asked for AND hashes to its ID.
func TestUnsolicitedDataNotStored(t *testing.T) {
	fc := newFetchCluster(t, 3, func(cfg *Config) { cfg.RepairWorkers = 1 })
	a := fc.nodes[0]
	got := fc.gotData(0)
	content := []byte("nobody asked for this")
	id := meta.HashData(content)
	frame := append(id[:], content...)

	for _, ft := range []byte{p2p.FrameData, p2p.FrameRepairData} {
		a.handleFrame("n1", ft, frame)
		if a.HasData(id) || len(got) != 0 {
			t.Fatalf("unsolicited frame %d was stored (OnData %v)", ft, got)
		}
	}
	// Asked for, but the bytes do not hash to the ID: still nothing.
	a.RequestData(id)
	a.handleFrame("n1", p2p.FrameData, append(id[:], "something else"...))
	if a.HasData(id) || len(got) != 0 || a.pendingFetches() != 1 {
		t.Fatal("content that does not hash to its ID was accepted")
	}
	a.handleFrame("n1", p2p.FrameData, frame)
	if !a.HasData(id) || got[id] != string(content) || a.pendingFetches() != 0 {
		t.Fatalf("solicited answer not stored: OnData %v", got)
	}
	// A queued repair task solicits too, for either answer frame.
	other := []byte("repair wants this")
	oid := meta.HashData(other)
	a.mu.Lock()
	a.repair.queue.Add(oid, a.now())
	a.mu.Unlock()
	a.handleFrame("n1", p2p.FrameRepairData, append(oid[:], other...))
	a.mu.Lock()
	queued := a.repair.queue.Has(oid)
	a.mu.Unlock()
	if !a.HasData(oid) || got[oid] != string(other) || queued {
		t.Fatalf("repair answer not stored (queued=%v): OnData %v", queued, got)
	}
}

// Close stops the timers of every pending fetch.
func TestCloseStopsFetchTimers(t *testing.T) {
	fc := newFetchCluster(t, 3, nil)
	a := fc.nodes[0]
	fc.know(0, 1, 2)
	timers := fc.clk.liveTimers()
	a.RequestData(fc.item(t, 0, "silent holder", 2, []int{1}))
	a.RequestData(meta.HashData([]byte("unknown")))
	if got := fc.clk.liveTimers() - timers; got != 3 {
		t.Fatalf("%d fetch timers armed, want 2 expiries + 1 attempt", got)
	}
	a.Close()
	if a.pendingFetches() != 0 || fc.clk.liveTimers() > timers {
		t.Fatalf("Close left %d fetches and %d timers", a.pendingFetches(), fc.clk.liveTimers()-timers)
	}
	a.RequestData(meta.HashData([]byte("after close")))
	if a.pendingFetches() != 0 {
		t.Fatal("a closed node registered a fetch")
	}
}

// Requests for the same and for different items from several goroutines,
// while peers' requests re-bind the table: everything is served and nothing
// stays pending (run under -race).
func TestFetchConcurrentRequests(t *testing.T) {
	fc := newFetchCluster(t, 4, nil)
	fc.fn.setDrop(nil) // the frame recorder is not synchronized
	a := fc.nodes[0]
	fc.know(0, 1, 2, 3)
	ids := make([]meta.DataID, 8)
	for i := range ids {
		ids[i] = fc.item(t, 0, fmt.Sprintf("concurrent %d", i), 3, []int{1, 2}, 1, 2)
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
				a.handleFrame(fmt.Sprintf("n%d", 1+g%3), p2p.FrameDataRequest, dataRequest(id, uint32(1+g%3)))
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
