package chaos

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/meta"
	"repro/internal/netsim"
	"repro/internal/p2p"
	"repro/internal/p2p/memnet"
)

// radioField is a 64-node radio field, sparse enough that most pairs are
// several hops apart, with nobody moving: the current graph is the home
// graph placement plans on.
func radioField(t *testing.T) *netsim.Radio {
	t.Helper()
	field := geo.Field{Width: 450, Height: 450}
	pls, err := netsim.PlaceConnected(field, 64, 30, 70, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	return netsim.NewRadio(netsim.RadioConfig{
		Field: field, Placements: pls, CommRange: 70,
		PerHopDelay: 10 * time.Millisecond, Bandwidth: 4 << 20,
	})
}

// publishOnRadio runs a 64-node cluster on r under rules, publishes items
// from producers all over the field and waits until every item is on the
// chain and stored by its assigned nodes. It returns the items as the
// chain placed them.
func publishOnRadio(t *testing.T, r *netsim.Radio, rules func(*engine.Config), items int) (*Cluster, []*meta.Item) {
	t.Helper()
	c := newCluster(t, Options{N: 64, Seed: 1, T0: 10 * time.Second, Radio: r, Rules: rules})
	if err := c.ConnectAll(); err != nil {
		t.Fatal(err)
	}
	ids := make([]meta.DataID, items)
	for k := range ids {
		it, err := c.Node((k*29)%64).Publish([]byte(fmt.Sprintf("radio item %03d", k)), "Road/Congestion", "field")
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = it.ID
		c.Run(5 * time.Second)
	}
	var placed []*meta.Item
	stored := func() bool {
		placed = placed[:0]
		live := make(map[meta.DataID]*meta.Item)
		for _, b := range c.Node(0).ChainSnapshot() {
			for _, it := range b.Items {
				live[it.ID] = it
			}
		}
		for _, id := range ids {
			it := live[id]
			if it == nil {
				return false
			}
			for _, s := range it.StoringNodes {
				if !c.Node(s).HasData(id) {
					return false
				}
			}
			placed = append(placed, it)
		}
		return true
	}
	if err := c.RunUntil(stored, 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	return c, placed
}

// meanNearestHolder is the mean over items and nodes of the hops from the
// node to the item's nearest storing node.
func meanNearestHolder(topo *netsim.Topology, items []*meta.Item) float64 {
	sum := 0
	for _, it := range items {
		for j := 0; j < topo.N(); j++ {
			best := netsim.InfHops
			for _, s := range it.StoringNodes {
				best = min(best, topo.Hops(netsim.NodeID(j), netsim.NodeID(s)))
			}
			sum += best
		}
	}
	return float64(sum) / float64(len(items)*topo.N())
}

// TestMultiHopNearestHolder holds the two places a radio field reaches into
// the node: placement plans on its hop graph (eq. 2's Range-Distance Cost),
// and a consumer asks the nearest holder first (§IV-D). On 64 nodes spread
// over a multi-hop field,
//
//	(a) optimal placement leaves every node fewer hops from an item's
//	    nearest holder than random placement does (Fig. 5's mechanism), and
//	(b) consumer reads are served over fewer hops than asking the holders
//	    in roster rotation, the order a clique node uses.
//
// Planning on a clique instead makes (a) fail; dropping the hop order makes
// (b) fail.
func TestMultiHopNearestHolder(t *testing.T) {
	const items = 24
	r := radioField(t)
	home := r.Home()

	random := func(e *engine.Config) {
		e.RandomPlacement = true
		e.Rand = rand.New(rand.NewSource(int64(e.Self)))
	}
	_, randomItems := publishOnRadio(t, r, random, items)
	c, optimalItems := publishOnRadio(t, r, nil, items)
	opt, rnd := meanNearestHolder(home, optimalItems), meanNearestHolder(home, randomItems)
	t.Logf("(a) hops to the nearest holder: optimal %.3f, random %.3f", opt, rnd)
	if opt > 0.85*rnd {
		t.Errorf("(a) optimal placement leaves %.3f hops to the nearest holder, random %.3f: want at least 15%% fewer", opt, rnd)
	}

	// (b) Every node reads every item it neither produced nor stores.
	first := len(c.Net.Events())
	var rotation, reads int
	for _, it := range optimalItems {
		producer := slices.Index(c.Accounts(), it.Producer)
		for j := 0; j < 64; j++ {
			if j == producer || slices.Contains(it.StoringNodes, j) {
				continue
			}
			rotation += home.Hops(netsim.NodeID(j), netsim.NodeID(it.StoringNodes[j%len(it.StoringNodes)]))
			reads++
			c.Node(j).RequestData(it.ID)
		}
	}
	c.Run(time.Minute)
	served, answers := 0, 0
	for _, ev := range c.Net.Events()[first:] {
		if ev.Kind == memnet.EvDeliver && ev.Frame == p2p.FrameData {
			served += home.Hops(netsim.NodeID(nodeIndex(ev.From)), netsim.NodeID(nodeIndex(ev.To)))
			answers++
		}
	}
	if answers < reads {
		t.Fatalf("(b) %d reads issued, %d answers delivered", reads, answers)
	}
	got, roster := float64(served)/float64(answers), float64(rotation)/float64(reads)
	t.Logf("(b) hops per read: served %.3f, roster rotation's first holder %.3f", got, roster)
	if got >= roster {
		t.Errorf("(b) reads were served over %.3f hops, no fewer than the %.3f of roster order", got, roster)
	}
}

// nodeIndex inverts Addr.
func nodeIndex(addr string) int {
	var i int
	fmt.Sscanf(addr, "node%d", &i)
	return i
}

// TestRadioStorerRetriesOwnCopy: a storer whose placement fetch finds no
// holder it can reach walks its candidates again one mobility epoch after
// the walk ran out, on a radio field without a repair plane. The producer,
// the only holder, is down from just before the item is packed until after
// the storers' first walks have ended; it comes back with the item on disk
// and behind the chain, so nothing but the re-walk asks it again.
func TestRadioStorerRetriesOwnCopy(t *testing.T) {
	field := geo.Field{Width: 40, Height: 40}
	pls, err := netsim.PlaceConnected(field, 6, 0, 70, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	r := netsim.NewRadio(netsim.RadioConfig{Field: field, Placements: pls, CommRange: 70, PerHopDelay: 10 * time.Millisecond,
		MobilityEpoch: 30 * time.Second})
	dirs := make([]string, 6)
	dirs[0] = t.TempDir()
	c := newCluster(t, Options{N: 6, Seed: 1, T0: 10 * time.Second, Radio: r, DataDirs: dirs})
	if err := c.ConnectAll(); err != nil {
		t.Fatal(err)
	}
	it, err := c.Node(0).Publish([]byte("cut-off item"), "Road/Congestion", "field")
	if err != nil {
		t.Fatal(err)
	}
	inPools := func() bool {
		for i := 1; i < 6; i++ {
			if !slices.Contains(c.Node(i).PoolIDs(), it.ID) {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(inPools, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntil(func() bool { return c.Node(1).HasItemOnChain(it.ID) }, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	var storers []int
	for _, b := range c.Node(1).ChainSnapshot() {
		for _, x := range b.Items {
			if x.ID == it.ID {
				storers = slices.DeleteFunc(slices.Clone(x.StoringNodes), func(s int) bool { return s == 0 })
			}
		}
	}
	if len(storers) == 0 {
		t.Fatal("the item was placed on its producer alone")
	}
	directed := func(s int) uint64 { return c.NodeTelemetry(s).Snapshot().Counter("livenode.fetch.directed") }
	c.Run(10 * time.Second) // every first walk has ended
	asked := make(map[int]uint64)
	for _, s := range storers {
		if c.Node(s).HasData(it.ID) {
			t.Fatalf("storer %d holds the item while its only holder is down", s)
		}
		if asked[s] = directed(s); asked[s] == 0 {
			t.Fatalf("storer %d never asked for its copy", s)
		}
	}
	c.Run(r.MobilityEpoch())
	for _, s := range storers {
		if directed(s) == asked[s] {
			t.Fatalf("storer %d did not walk again within one mobility epoch (%d asks)", s, asked[s])
		}
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	held := func() bool {
		for _, s := range storers {
			if !c.Node(s).HasData(it.ID) {
				return false
			}
		}
		return true
	}
	if err := c.RunUntil(held, 5*time.Minute); err != nil {
		t.Fatalf("storers %v never fetched their copy after the producer came back: %v", storers, err)
	}
}
