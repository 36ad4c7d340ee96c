package livenode

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/pos"
	"repro/internal/telemetry"
)

// testRoster builds n deterministic identities.
func testRoster(n int) ([]*identity.Identity, []identity.Address) {
	rng := rand.New(rand.NewSource(1))
	idents := make([]*identity.Identity, n)
	accounts := make([]identity.Address, n)
	for i := range idents {
		idents[i] = identity.GenerateSeeded(rng)
		accounts[i] = idents[i].Address()
	}
	return idents, accounts
}

func startNode(t *testing.T, ident *identity.Identity, accounts []identity.Address, epoch time.Time, t0 time.Duration) *Node {
	t.Helper()
	node, err := New(Config{
		Identity:    ident,
		Accounts:    accounts,
		PoS:         pos.Params{M: pos.DefaultM, T0: t0},
		GenesisSeed: 42,
		Epoch:       epoch,
		ListenAddr:  "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { node.Close() })
	return node
}

// newCluster starts n live nodes on localhost in a full mesh.
func newCluster(t *testing.T, n int, t0 time.Duration) []*Node {
	t.Helper()
	idents, accounts := testRoster(n)
	epoch := time.Now()
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = startNode(t, idents[i], accounts, epoch, t0)
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i < j {
				if err := a.Connect(b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return nodes
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLiveClusterMinesAndConverges(t *testing.T) {
	nodes := newCluster(t, 3, time.Second)
	waitFor(t, 20*time.Second, "two blocks everywhere", func() bool {
		for _, n := range nodes {
			if n.Height() < 2 {
				return false
			}
		}
		return true
	})
	// Compare the lowest common height's block across nodes.
	low := nodes[0].Height()
	for _, n := range nodes[1:] {
		if h := n.Height(); h < low {
			low = h
		}
	}
	want, ok := nodes[0].BlockHashAt(low)
	if !ok {
		t.Fatal("node 0 lost a block")
	}
	for i, n := range nodes[1:] {
		got, ok := n.BlockHashAt(low)
		if !ok || got != want {
			t.Fatalf("node %d diverges at height %d", i+1, low)
		}
	}
}

func TestLiveDataFlow(t *testing.T) {
	nodes := newCluster(t, 3, time.Second)

	content := []byte("live road congestion report")
	it, err := nodes[0].Publish(content, "Road/Congestion", "lab")
	if err != nil {
		t.Fatal(err)
	}

	// The item must land in a block on a peer's replica.
	waitFor(t, 25*time.Second, "item on chain", func() bool {
		return nodes[1].HasItemOnChain(it.ID)
	})

	// A consumer fetches the data by content hash.
	if nodes[2].HasData(it.ID) {
		t.Log("consumer already stores the item (was assigned)")
		return
	}
	got := make(chan []byte, 1)
	nodes[2].SetOnData(func(id meta.DataID, content []byte) {
		if id == it.ID {
			select {
			case got <- content:
			default:
			}
		}
	})
	nodes[2].RequestData(it.ID)
	select {
	case body := <-got:
		if string(body) != string(content) {
			t.Fatalf("content mismatch: %q", body)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("data never arrived")
	}
}

// TestLiveTelemetryCounters runs a real-TCP 3-node cluster with per-node
// registries and checks the whole pipe is live end to end: the TCP
// transport's frame/byte counters, the mining attempt/win split, and the
// height gauge must all be non-trivial after a couple of blocks.
func TestLiveTelemetryCounters(t *testing.T) {
	idents, accounts := testRoster(3)
	epoch := time.Now()
	regs := make([]*telemetry.Registry, 3)
	nodes := make([]*Node, 3)
	for i := range nodes {
		regs[i] = telemetry.NewRegistry()
		node, err := New(Config{
			Identity:    idents[i],
			Accounts:    accounts,
			PoS:         pos.Params{M: pos.DefaultM, T0: time.Second},
			GenesisSeed: 42,
			Epoch:       epoch,
			ListenAddr:  "127.0.0.1:0",
			Telemetry:   regs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { node.Close() })
		nodes[i] = node
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i < j {
				if err := a.Connect(b.Addr()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitFor(t, 20*time.Second, "two blocks everywhere", func() bool {
		for _, n := range nodes {
			if n.Height() < 2 {
				return false
			}
		}
		return true
	})

	// A single node can win every round (then it receives no block frames)
	// and a node whose mining timer is always preempted by an arriving
	// block never fires an attempt — so mining and block-frame counters
	// are asserted cluster-wide, while plain frame/byte traffic (hello at
	// minimum) is asserted per node.
	var totalWon, totalAttempts, totalBlockRecv uint64
	for i, reg := range regs {
		snap := reg.Snapshot()
		for _, name := range []string{"p2p.frames_sent", "p2p.frames_recv", "p2p.bytes_sent", "p2p.bytes_recv"} {
			if snap.Counter(name) == 0 {
				t.Errorf("node %d: %s = 0 after a mined run", i, name)
			}
		}
		attempts, won := snap.Counter("livenode.mining.attempts"), snap.Counter("livenode.mining.blocks_won")
		if won > attempts {
			t.Errorf("node %d: blocks_won %d > attempts %d", i, won, attempts)
		}
		totalWon += won
		totalAttempts += attempts
		// A block body arrives as a compact frame and is rebuilt from the
		// pool (§13.1).
		totalBlockRecv += snap.Counter("livenode.gossip.compact_rebuilt")
		if g := snap.Gauge("livenode.height"); g < 2 {
			t.Errorf("node %d: height gauge = %d, chain height = %d", i, g, nodes[i].Height())
		}
	}
	// Heights can keep advancing between waitFor and the snapshots, so
	// cluster-wide wins are only bounded below: ≥ the 2 blocks waited for.
	if totalWon < 2 {
		t.Errorf("cluster mined to height ≥2 but only %d blocks_won counted", totalWon)
	}
	if totalAttempts < totalWon {
		t.Errorf("cluster attempts %d < blocks won %d", totalAttempts, totalWon)
	}
	if totalBlockRecv == 0 {
		t.Error("no node ever rebuilt a fetched block, yet all converged past height 2")
	}
}

func TestLiveLateJoinerSyncs(t *testing.T) {
	idents, accounts := testRoster(3)
	epoch := time.Now()
	a := startNode(t, idents[0], accounts, epoch, time.Second)
	b := startNode(t, idents[1], accounts, epoch, time.Second)
	if err := a.Connect(b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 20*time.Second, "initial blocks", func() bool {
		return a.Height() >= 2 && b.Height() >= 2
	})

	// The third roster member joins late and must sync the whole chain.
	late := startNode(t, idents[2], accounts, epoch, time.Second)
	if err := late.Connect(a.Addr(), b.Addr()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "late joiner sync", func() bool {
		return late.Height() >= a.Height()-1 && late.Height() >= 2
	})
}

func TestLiveRejectsWrongRoster(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	me := identity.GenerateSeeded(rng)
	other := identity.GenerateSeeded(rng)
	_, err := New(Config{
		Identity:    me,
		Accounts:    []identity.Address{other.Address()},
		PoS:         pos.DefaultParams(),
		GenesisSeed: 1,
		Epoch:       time.Now(),
		ListenAddr:  "127.0.0.1:0",
	})
	if err == nil {
		t.Fatal("identity outside roster accepted")
	}
}
