package chaos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/identity"
	"repro/internal/meta"
	"repro/internal/p2p/memnet"
)

// Tree relay scenarios (DESIGN.md §13, §15.1): what the push along the
// roster-derived spanning tree costs when every view agrees, and that the
// backup — the next block's compact-miss path and the fallback announce of
// what it fetched — completes every pool when they do not.

// sumCounter adds one counter over every node's registry.
func sumCounter(c *Cluster, name string) (v uint64) {
	for i := range c.nodeRegs {
		v += c.NodeTelemetry(i).Snapshot().Counter(name)
	}
	return v
}

// checkTreeRelayHealthy holds a run on a healthy cluster — no drops, every
// view complete — to the tree relay's own terms: each of the `bodies` items or
// blocks crossed the network exactly n−1 times, nobody received one twice,
// no send failed, and nobody had to fetch one. The metadata plane sends no
// announce at all; the block plane's backup announces, one per block-node
// (relay.lazy_ids), are every one heard as a duplicate. plane is
// "metagossip" or "gossip".
func checkTreeRelayHealthy(t *testing.T, c *Cluster, plane string, bodies uint64) {
	t.Helper()
	n := uint64(len(c.nodeRegs))
	if pushed := sumCounter(c, "livenode.relay.pushed"); pushed != bodies*(n-1) {
		t.Errorf("%d bodies pushed for %d relayed, want n−1 = %d each", pushed, bodies, n-1)
	}
	for _, name := range []string{"livenode.relay.dup_bodies", "livenode.relay.fallback_announces", "livenode.relay.stale_reannounced",
		"livenode.relay.routed_around", "livenode." + plane + ".fetches_sent", "livenode.metagossip.refetched_held",
		"livenode.metagossip.short_unresolved", "livenode.metagossip.fetch_dropped"} {
		if v := sumCounter(c, name); v != 0 {
			t.Errorf("%s = %d on a healthy cluster, want 0", name, v)
		}
	}
	heard := sumCounter(c, "livenode."+plane+".dup_suppressed") + sumCounter(c, "livenode."+plane+".stale_suppressed")
	if plane == "metagossip" {
		// Every announced ID a node hears is suppressed, dropped or fetched.
		if heard != 0 {
			t.Errorf("%d announced IDs heard on the metadata plane, want none: the next block is its backup", heard)
		}
		return
	}
	// Heights stay below 128 here: a block announce is a 38-byte frame.
	sent := sumCounter(c, "livenode.wire.announce_bytes") / 38
	// The newest block's announce may still be on its timer when the run ends.
	if lazy := sumCounter(c, "livenode.relay.lazy_ids"); lazy == 0 || lazy > bodies*n || sent < lazy || heard != sent {
		t.Errorf("%d blocks announced behind their push in %d frames, %d heard, for %d blocks on %d nodes: want at most one per block-node, each frame heard as a duplicate",
			lazy, sent, heard, bodies, n)
	}
}

// TestTreeRelayStorm is the case a prune/graft relay does not survive
// (DESIGN.md §15.1, "Why not prune/graft"): 64 nodes on 8–12 ms links take
// 100 items a second for ten seconds from producers all over the roster, a
// hundred broadcasts in flight at any moment. The tree is computed, not
// negotiated, so concurrency cannot bend it: 63 bodies per item, no
// duplicate, no fetch, every pool complete.
func TestTreeRelayStorm(t *testing.T) {
	t.Parallel()
	const n, perSecond = 64, 100
	seconds := 10
	if testing.Short() {
		seconds = 2 // one ed25519 check per item-node: 63 000 of them cost minutes under the race detector
	}
	c := newQuietCluster(t, Options{
		N:      n,
		T0:     time.Hour, // park mining: only metadata frames flow
		Faults: memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	items := seconds * perSecond
	for k := 0; k < items; k++ {
		if _, err := c.Node((k*37)%n).Publish([]byte(fmt.Sprintf("storm item %04d", k)), "Road/Congestion", "storm"); err != nil {
			t.Fatal(err)
		}
		c.Run(time.Second / perSecond)
	}
	c.Run(5 * time.Second) // the last pushes, and any timer that could follow them
	for i := 0; i < n; i++ {
		if got := len(c.Node(i).PoolIDs()); got != items {
			t.Fatalf("node %d pools %d of %d items", i, got, items)
		}
	}
	checkTreeRelayHealthy(t, c, "metagossip", uint64(items))
	t.Logf("%d items at %d/s: %d bodies pushed in %d meta bytes (%.1f KB/item)", items, perSecond,
		sumCounter(c, "livenode.relay.pushed"),
		sumCounter(c, "livenode.wire.meta_bytes"), float64(sumCounter(c, "livenode.wire.meta_bytes"))/1000/float64(items))
}

// TestTreeRelayDisagreeingViews: the tree is only as good as the agreement on
// the sorted peer list, so the relay must degrade, not fail, where views
// differ. Pushes that still land fill most pools at once; a node a push
// missed takes the item from the next block that packs it, by the
// compact-miss path, and the fallback announce of what it fetched reaches
// others the push missed. Every live node must end with every item.
func TestTreeRelayDisagreeingViews(t *testing.T) {
	const n, items = 64, 24
	publish := func(t *testing.T, c *Cluster, skip int) (ids []meta.DataID) {
		for k := 0; k < items; k++ {
			producer := (k * 7) % n
			if producer == skip {
				producer++
			}
			it, err := c.Node(producer).Publish([]byte(fmt.Sprintf("view item %03d", k)), "Road/Congestion", "views")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, it.ID)
			c.Run(500 * time.Millisecond)
		}
		return ids
	}
	// backupRan fails a scenario in which no push was lost: it tests nothing.
	backupRan := func(t *testing.T, c *Cluster) {
		t.Helper()
		fetched, fallback := sumCounter(c, "livenode.metagossip.fetches_sent"), sumCounter(c, "livenode.relay.fallback_announces")
		t.Logf("%d pushed, %d duplicate bodies, %d routed around, %d fetched, %d fallback announces",
			sumCounter(c, "livenode.relay.pushed"), sumCounter(c, "livenode.relay.dup_bodies"), sumCounter(c, "livenode.relay.routed_around"), fetched, fallback)
		if fetched == 0 || fallback == 0 {
			t.Errorf("%d items fetched, %d fallback announces: no push was lost, the scenario tests nothing", fetched, fallback)
		}
	}
	opts := Options{N: n, Faults: memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond}}

	// Two nodes never met, so each derives its trees over 63 ranks where the
	// others see 64: their pushes go to the wrong neighbours.
	t.Run("a missing peer", func(t *testing.T) {
		t.Parallel()
		c, err := NewCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		c.Net.SetRecording(false)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if i == 20 && j == 41 {
					continue
				}
				if err := c.nodes[i].Connect(Addr(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		drainItemSets(t, c, publish(t, c, -1))
		backupRan(t, c)
	})

	// One node goes silent but stays in every view — a crash nobody has
	// noticed yet. Whenever an item's tree makes it an interior node, the
	// subtree behind it hears nothing until the next block. It comes back
	// once the last item is out and must catch up with all of them.
	t.Run("a silent interior node", func(t *testing.T) {
		t.Parallel()
		const silent = 33
		c := newQuietCluster(t, opts)
		rest := make([]int, 0, n-1)
		for i := 0; i < n; i++ {
			if i != silent {
				rest = append(rest, i)
			}
		}
		c.Partition([]int{silent}, rest)
		ids := publish(t, c, silent)
		c.Heal()
		drainItemSets(t, c, ids)
		backupRan(t, c)
	})

	// The same node crashes while a burst of pushes is in flight: what it was
	// relaying dies with it, and every later tree is derived without it.
	t.Run("a crashed interior node", func(t *testing.T) {
		t.Parallel()
		const victim = 33
		c := newQuietCluster(t, opts)
		var ids []meta.DataID
		for k := 0; k < 8; k++ {
			it, err := c.Node(k).Publish([]byte(fmt.Sprintf("crash item %d", k)), "Road/Congestion", "views")
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, it.ID)
		}
		c.Run(15 * time.Millisecond) // one hop delivered, the next in flight
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		drainItemSets(t, c, append(ids, publish(t, c, victim)...))
		backupRan(t, c)
	})
}

// TestTreeParentKilledMidPush is the bound the metadata plane's backup sets: a
// tree parent that crashes after an item reaches it and before it passes the
// item on strands its subtree's pools, and nothing about the item moves until
// a block packs it. The first block whose miner pooled the item packs it, and
// every stranded pool takes it from that block by the compact-miss path. The
// parent's relays are held back by blocking its outgoing links, a loss its
// senders cannot see, and it crashes once the pushes around it have landed.
func TestTreeParentKilledMidPush(t *testing.T) {
	const n, items, victim = 16, 16, 5
	c := newQuietCluster(t, Options{
		N:      n,
		T0:     20 * time.Second,
		Faults: memnet.Params{DelayMin: 8 * time.Millisecond, DelayMax: 12 * time.Millisecond},
	})
	warmUp(t, c)
	for j := 0; j < n; j++ {
		if j != victim {
			c.Net.BlockLink(Addr(victim), Addr(j))
		}
	}
	h0 := c.Node(0).Height()
	ids := make([]meta.DataID, items)
	for k := range ids {
		producer := (k*3 + 1) % n
		if producer == victim {
			producer++ // what the victim publishes dies with it
		}
		it, err := c.Node(producer).Publish([]byte(fmt.Sprintf("orphaned item %02d", k)), "Road/Congestion", "views")
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = it.ID
	}
	c.Run(200 * time.Millisecond) // every push that can land has: a few 12 ms hops
	// missed maps an item to the live nodes whose pools lack it.
	missed := make(map[meta.DataID][]int)
	for i := 0; i < n; i++ {
		if h := c.Node(i).Height(); h != h0 {
			t.Fatalf("node %d at height %d, want %d: a block came while the pushes landed", i, h, h0)
		}
		if i == victim {
			continue
		}
		pooled := make(map[meta.DataID]bool)
		for _, id := range c.Node(i).PoolIDs() {
			pooled[id] = true
		}
		for _, id := range ids {
			if !pooled[id] {
				missed[id] = append(missed[id], i)
			}
		}
	}
	if len(missed) == 0 {
		t.Fatal("no pool missed an item: the victim was a leaf of every tree, and the scenario tests nothing")
	}
	for _, name := range []string{"livenode.metagossip.dup_suppressed", "livenode.metagossip.fetches_sent", "livenode.metagossip.fetch_dropped"} {
		if v := sumCounter(c, name); v != 0 {
			t.Fatalf("%s = %d before any block: an announce of a pushed item was sent", name, v)
		}
	}
	stranded, pairs := len(missed), 0
	for _, nodes := range missed {
		pairs += len(nodes)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	drainItemSets(t, c, ids)
	if v := sumCounter(c, "livenode.gossip.compact_items_missing"); v == 0 {
		t.Error("no compact body missed an item: the blocks did not carry the stranded ones")
	}

	// On the chain every live node converged on, each stranded item sits in
	// the first block after the pushes whose miner was not stranded on it.
	miner := make(map[identity.Address]int)
	for i, a := range c.Accounts() {
		miner[a] = i
	}
	for _, blk := range c.Node(0).ChainSnapshot()[h0+1:] {
		packed := make(map[meta.DataID]bool)
		for _, it := range blk.Items {
			packed[it.ID] = true
		}
		for id, nodes := range missed {
			switch {
			case packed[id]:
				delete(missed, id)
			case !slices.Contains(nodes, miner[blk.Miner]):
				t.Errorf("block %d by node %d does not pack item %s, which its miner pooled", blk.Index, miner[blk.Miner], id.Short())
				delete(missed, id)
			}
		}
	}
	t.Logf("%d items stranded in %d pools in all; %d compact misses, %d items fetched, %d fallback announces",
		stranded, pairs, sumCounter(c, "livenode.gossip.compact_items_missing"), sumCounter(c, "livenode.metagossip.fetches_sent"),
		sumCounter(c, "livenode.relay.fallback_announces"))
}
