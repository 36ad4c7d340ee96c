package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/meta"
)

// TestReorgEvents: a fork adoption reports the disconnected blocks once,
// oldest first, before anything else, then one AppendEvent per connected
// block carrying exactly the ItemEvents a block-by-block ReceiveBlock of the
// same suffix delivers on a replica that never saw the losing branch.
func TestReorgEvents(t *testing.T) {
	const node, ref = 2, 4 // ref is node's view (Self = node) kept off the losing branch
	var gone [][]*block.Block
	eventsAtDisconnect := -1
	var c *testCluster
	c = newTestCluster(t, 5, func(i int, cfg *Config) {
		cfg.SnapshotInterval = 4
		switch i {
		case ref:
			cfg.Self = node
		case node:
			cfg.OnDisconnect = func(bs []*block.Block) {
				gone = append(gone, bs)
				eventsAtDisconnect = len(c.events[node])
			}
		}
	})
	publish := func(name string, to ...int) meta.DataID {
		it := c.item(to[0], name)
		for _, i := range to {
			if !c.engines[i].AddMetadata(it) {
				t.Fatalf("engine %d refused %q", i, name)
			}
		}
		return it.ID
	}
	follow := func(b *block.Block) {
		if _, err := c.engines[ref].ReceiveBlock(b); err != nil {
			t.Fatalf("reference receive: %v", err)
		}
	}
	all := []int{0, 1, 2, 3}
	for i := 0; i < 5; i++ {
		publish(fmt.Sprint("shared ", i), 0, 1, 2, 3, ref)
		follow(c.mineAmong(t, all))
	}
	// Pooled everywhere before the split, so both branches pack it: on the
	// losing branch node sees it on chain, yet the winning branch's event must
	// call it a first appearance — the fork-point state says so.
	both := publish("both", 0, 1, 2, 3, ref)
	var local, remote []*block.Block
	var onlyLocal []meta.DataID
	for i := 0; i < 2; i++ {
		onlyLocal = append(onlyLocal, publish(fmt.Sprint("local ", i), 2, 3))
		local = append(local, c.mineAmong(t, []int{2, 3}))
	}
	for i := 0; i < 3; i++ {
		publish(fmt.Sprint("remote ", i), 0, 1, ref)
		b := c.mineAmong(t, []int{0, 1})
		follow(b)
		remote = append(remote, b)
	}
	if !c.engines[node].OnChain(both) {
		t.Fatal("fixture: the losing branch did not pack the shared item")
	}

	before := len(c.events[node])
	_, verified := c.engines[node].SigCacheStats()
	if _, ok := c.engines[node].AdoptSuffix(remote); !ok {
		t.Fatal("valid suffix refused")
	}
	// What only the losing branch had packed is pooled again as published,
	// at no signature check beyond the suffix's own one new item per block.
	for _, id := range onlyLocal {
		if it := c.engines[node].PoolItem(id); it == nil || it.StoringNodes != nil {
			t.Fatalf("item of a disconnected block back in the pool as %+v, want it there unplaced", it)
		}
	}
	if c.engines[node].PoolHas(both) {
		t.Fatal("item the winning branch packs is pooled too")
	}
	if _, after := c.engines[node].SigCacheStats(); after != verified+uint64(len(remote)) {
		t.Fatalf("%d signature checks during the adoption, want %d", after-verified, len(remote))
	}
	if len(gone) != 1 || !reflect.DeepEqual(gone[0], local) {
		t.Fatalf("disconnect reports %v, want one call with the %d local blocks oldest first", gone, len(local))
	}
	if eventsAtDisconnect != before {
		t.Fatalf("disconnect hook ran after %d append events of the suffix, want before the first", eventsAtDisconnect-before)
	}
	got, want := c.events[node][before:], c.events[ref][len(c.events[ref])-len(remote):]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("suffix events differ from block-by-block adoption:\n got  %+v\n want %+v", got, want)
	}
	i := slices.IndexFunc(got[0].Items, func(ie ItemEvent) bool { return ie.Item.ID == both })
	if i < 0 || got[0].Items[i].Prev != nil {
		t.Fatalf("item packed on both branches: events %+v, want a first appearance with no previous version", got[0].Items)
	}

	// A pure tip extension disconnects nothing.
	follow(c.mineAmong(t, []int{0, 1}))
	if _, ok := c.engines[node].AdoptSuffix(c.engines[0].Chain().Blocks()[9:]); !ok || len(gone) != 1 {
		t.Fatalf("catch-up: adopted %v, %d disconnect calls, want 1 from before", ok, len(gone))
	}
	if got, want := c.events[node][len(c.events[node])-1], c.events[ref][len(c.events[ref])-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("catch-up event %+v, want %+v", got, want)
	}
}
