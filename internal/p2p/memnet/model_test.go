package memnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/p2p"
)

// peerModel is the reference a memnet script is checked against: each
// address's peers as a map of addresses, and the frames in flight as a FIFO
// (links are perfect and instant, so delivery is send order).
type peerModel struct {
	listened map[string]bool // ever listened on
	closed   map[string]bool // its latest endpoint is closed
	peers    map[string]map[string]bool
	inFlight []modelFrame
}

type modelFrame struct{ from, to, payload string }

// sorted is the reference for one endpoint's Peers: the map's keys through
// sort.Strings.
func (m *peerModel) sorted(addr string) []string {
	var out []string
	for p := range m.peers[addr] {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// delivery is one frame a handler received; inc names the endpoint
// incarnation that got it.
type delivery struct {
	inc           int
	from, payload string
}

type logHandler struct {
	inc int
	log *[]delivery
}

func (h logHandler) HandleFrame(from string, _ byte, payload []byte) {
	*h.log = append(*h.log, delivery{h.inc, from, string(payload)})
}

// TestPeerSetMatchesModel runs a seeded random script over 180 endpoints
// named like chaos cluster nodes ("node100" sorts between "node10" and
// "node11"): a hundred listen up front, the rest late, between addresses
// already numbered; endpoints close and their addresses are listened on again;
// links connect; frames are sent and delivered; closed endpoints' stale
// handles are used too. After every step each live endpoint's Peers equals
// the model's map of addresses through sort.Strings, every snapshot any
// endpoint handed out earlier is as it was, and every Connect, Send and
// DeliverNext has the model's outcome, to the error text. The event digest
// and count at the end are pinned: the script logs the same events, in the
// same order, as the map-based peer sets the bitsets replaced.
func TestPeerSetMatchesModel(t *testing.T) {
	const nAddrs, early, steps = 180, 100, 1500
	rng := rand.New(rand.NewSource(11))
	epoch := time.Unix(1700000000, 0)
	n := New(5, func() time.Time { return epoch })
	addrs := make([]string, nAddrs)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%02d", i)
	}
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	m := &peerModel{listened: map[string]bool{}, closed: map[string]bool{}, peers: map[string]map[string]bool{}}
	current := map[string]*Endpoint{} // latest endpoint per address
	incOf := map[*Endpoint]int{}
	var stale []*Endpoint // closed endpoints whose address was listened on again
	var log []delivery
	listen := func(addr string) {
		t.Helper()
		if old := current[addr]; old != nil {
			stale = append(stale, old)
		}
		inc := len(incOf)
		e, err := n.Listen(addr, logHandler{inc, &log})
		if err != nil {
			t.Fatalf("listen %s: %v", addr, err)
		}
		current[addr], incOf[e] = e, inc
		m.listened[addr], m.closed[addr], m.peers[addr] = true, false, map[string]bool{}
	}
	for _, a := range addrs[:early] {
		listen(a)
	}
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	listenedAddrs := func() []string {
		var out []string
		for _, a := range addrs {
			if m.listened[a] {
				out = append(out, a)
			}
		}
		return out
	}

	type held struct {
		step       int
		snap, copy []string
	}
	var kept []held
	last := map[*Endpoint][]string{}
	check := func(step int, op string) {
		t.Helper()
		for _, a := range addrs {
			e := current[a]
			if e == nil {
				continue
			}
			got, want := e.Peers(), m.sorted(a)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): %s peers = %v, want %v", step, op, a, got, want)
			}
			if len(got) > 0 && (len(last[e]) == 0 || &got[0] != &last[e][0]) {
				kept = append(kept, held{step, got, slices.Clone(got)})
				last[e] = got
			}
		}
		for _, e := range stale {
			if got := e.Peers(); len(got) != 0 {
				t.Fatalf("step %d (%s): a replaced endpoint of %s lists peers %v", step, op, e.Addr(), got)
			}
		}
		for _, h := range kept {
			if !slices.Equal(h.snap, h.copy) {
				t.Fatalf("step %d (%s): the snapshot taken at step %d changed to %v, was %v", step, op, h.step, h.snap, h.copy)
			}
		}
	}
	wantErr := func(step int, op string, err error, want string) {
		t.Helper()
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != want {
			t.Fatalf("step %d: %s returned %q, the model says %q", step, op, got, want)
		}
	}

	check(0, "start")
	for step := 1; step <= steps; step++ {
		var op string
		switch r := rng.Intn(100); {
		case r < 4: // a late address, sorting between numbered ones
			var fresh []string
			for _, a := range addrs {
				if !m.listened[a] {
					fresh = append(fresh, a)
				}
			}
			if len(fresh) == 0 {
				continue
			}
			a := pick(fresh)
			op = "listen " + a
			listen(a)
		case r < 8: // a close, and at times a restart on the same address
			a := pick(listenedAddrs())
			op = "close " + a
			if err := current[a].Close(); err != nil {
				t.Fatal(err)
			}
			if !m.closed[a] {
				m.closed[a] = true
				for _, p := range m.peers {
					delete(p, a)
				}
				m.peers[a] = map[string]bool{}
			}
		case r < 12:
			var down []string
			for _, a := range addrs {
				if m.closed[a] {
					down = append(down, a)
				}
			}
			if len(down) == 0 {
				continue
			}
			a := pick(down)
			op = "relisten " + a
			listen(a)
		case r < 14 && len(stale) > 0: // a replaced endpoint's stale handle
			e := stale[rng.Intn(len(stale))]
			to := pick(addrs)
			op = "stale " + e.Addr() + "->" + to
			wantErr(step, op+" connect", e.Connect(to), fmt.Sprintf("memnet: endpoint %s closed", e.Addr()))
			wantErr(step, op+" send", e.Send(to, p2p.FrameMeta, []byte(op)), fmt.Sprintf("memnet: endpoint %s closed", e.Addr()))
		case r < 50:
			a, b := pick(listenedAddrs()), pick(addrs)
			op = "connect " + a + "->" + b
			want := ""
			switch {
			case m.closed[a]:
				want = fmt.Sprintf("memnet: endpoint %s closed", a)
			case a == b || m.peers[a][b]:
			case !m.listened[b] || m.closed[b]:
				want = fmt.Sprintf("memnet: connect %s: connection refused", b)
			default:
				m.peers[a][b], m.peers[b][a] = true, true
			}
			wantErr(step, op, current[a].Connect(b), want)
		case r < 80:
			a := pick(listenedAddrs())
			b := pick(addrs)
			if ps := m.sorted(a); len(ps) > 0 && rng.Intn(4) > 0 {
				b = pick(ps) // mostly to a peer
			}
			op = "send " + a + "->" + b
			payload := fmt.Sprintf("%d", step)
			want := ""
			switch {
			case m.closed[a]:
				want = fmt.Sprintf("memnet: endpoint %s closed", a)
			case !m.peers[a][b]:
				want = fmt.Sprintf("memnet: unknown peer %s", b)
			case m.closed[b]:
				delete(m.peers[a], b)
				want = fmt.Sprintf("memnet: peer %s gone", b)
			default:
				m.inFlight = append(m.inFlight, modelFrame{a, b, payload})
			}
			wantErr(step, op, current[a].Send(b, p2p.FrameMeta, []byte(payload)), want)
		default:
			op = "deliver"
			before := len(log)
			ok := n.DeliverNext()
			if ok != (len(m.inFlight) > 0) {
				t.Fatalf("step %d: DeliverNext = %v with %d frames in the model's flight", step, ok, len(m.inFlight))
			}
			if !ok {
				break
			}
			f := m.inFlight[0]
			m.inFlight = m.inFlight[1:]
			var want []delivery
			if !m.closed[f.to] && m.peers[f.to][f.from] {
				want = []delivery{{incOf[current[f.to]], f.from, f.payload}}
			}
			if got := log[before:]; !slices.Equal(got, want) {
				t.Fatalf("step %d: frame %+v delivered as %v, the model says %v", step, f, got, want)
			}
		}
		check(step, op)
	}
	for n.DeliverNext() {
	}
	kinds := map[EventKind]int{}
	for _, e := range n.Events() {
		kinds[e.Kind]++
	}
	t.Logf("events by kind: %v; %d stale handles", kinds, len(stale))
	const wantDigest, wantEvents = 0xe4b96a92df9b32b4, 1033
	if d, c := n.EventDigest(), n.EventCount(); d != wantDigest || c != wantEvents {
		t.Fatalf("event digest %016x over %d events, want %016x over %d", d, c, uint64(wantDigest), wantEvents)
	}
}
