package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/meta"
)

// modelNode is the reference model of one engine's pool and chain: what they
// must hold given only the operations applied to it. Nothing an engine has
// accepted may leave both except by expiring.
type modelNode struct {
	chain    []*block.Block // block h at chain[h-1]
	pool     map[meta.DataID]*meta.Item
	accepted map[meta.DataID]*meta.Item
}

func (m *modelNode) onChain(id meta.DataID) bool {
	return slices.ContainsFunc(m.chain, func(b *block.Block) bool {
		return slices.ContainsFunc(b.Items, func(it *meta.Item) bool { return it.ID == id })
	})
}

// offer is a published or relayed item reaching the node; it reports whether
// the node must take it.
func (m *modelNode) offer(it *meta.Item) bool {
	if m.onChain(it.ID) || m.pool[it.ID] != nil {
		return false
	}
	m.pool[it.ID], m.accepted[it.ID] = it, it
	return true
}

// connect extends the tip by b.
func (m *modelNode) connect(b *block.Block) {
	m.chain = append(m.chain, b)
	for _, it := range b.Items {
		delete(m.pool, it.ID)
	}
}

// reorg replaces the blocks above height fork by suffix: what the losing
// branch had packed and the winning one does not goes back to the pool.
func (m *modelNode) reorg(fork int, suffix []*block.Block, now time.Duration) {
	gone := m.chain[fork:]
	m.chain = m.chain[:fork:fork]
	for _, b := range suffix {
		m.connect(b)
	}
	for _, b := range gone {
		for _, it := range b.Items {
			if !it.Expired(now) && !m.onChain(it.ID) {
				m.pool[it.ID] = it
			}
		}
	}
}

// check compares engine e with the model at time now and asserts the two
// invariants of ROADMAP item 1 directly on the engine.
func (m *modelNode) check(t *testing.T, step int, who int, e *Engine, now time.Duration) {
	t.Helper()
	if got := e.Chain().Blocks()[1:]; !slices.Equal(got, m.chain) {
		t.Fatalf("step %d engine %d: chain of %d blocks, model has %d", step, who, len(got), len(m.chain))
	}
	live := func(ids []meta.DataID, item func(meta.DataID) *meta.Item) []meta.DataID {
		ids = slices.DeleteFunc(ids, func(id meta.DataID) bool { return item(id).Expired(now) })
		slices.SortFunc(ids, compareID)
		return ids
	}
	var want []meta.DataID
	for id := range m.pool {
		want = append(want, id)
	}
	got := live(e.PoolIDs(), e.PoolItem)
	if want = live(want, func(id meta.DataID) *meta.Item { return m.pool[id] }); !slices.Equal(got, want) {
		t.Fatalf("step %d engine %d: pool holds %d unexpired items, model %d", step, who, len(got), len(want))
	}
	for id, it := range m.accepted {
		if !e.PoolHas(id) && !e.OnChain(id) && !it.Expired(now) {
			t.Fatalf("step %d engine %d: accepted item %s is neither pooled, on chain nor expired", step, who, id.Short())
		}
		if e.PoolHas(id) && e.OnChain(id) {
			t.Fatalf("step %d engine %d: item %s is both pooled and on chain", step, who, id.Short())
		}
	}
}

// TestModelNothingAcceptedIsLost drives three engines through random
// publish / relay / mine / deliver / fork-adopt sequences and checks each
// against the reference model after every step: an item an engine accepted is
// in its pool, on its canonical chain, or expired, and pool ∩ chain = ∅.
func TestModelNothingAcceptedIsLost(t *testing.T) {
	const n, steps = 3, 300
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newTestCluster(t, n, func(i int, cfg *Config) { cfg.SnapshotInterval = 4 })
		models := make([]*modelNode, n)
		for i := range models {
			models[i] = &modelNode{pool: map[meta.DataID]*meta.Item{}, accepted: map[meta.DataID]*meta.Item{}}
		}
		forks, repooled, expired := 0, 0, 0
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			e, m := c.engines[i], models[i]
			switch op := rng.Intn(10); {
			case op < 3: // publish at i, relay to some of the others
				it := c.item(i, fmt.Sprintf("model %d/%d", seed, step))
				it.ValidFor = time.Duration(rng.Intn(2)) * 20 * time.Minute
				it.Sign(c.idents[i])
				e.AddLocal(it)
				m.offer(it)
				for j := range c.engines {
					if j != i && rng.Intn(2) == 0 {
						if got, want := c.engines[j].AddMetadata(it), models[j].offer(it); got != want {
							t.Fatalf("seed %d step %d: engine %d took the item: %v, model %v", seed, step, j, got, want)
						}
					}
				}
			case op < 6: // i wins a round on its own tip, telling nobody yet
				r, ok := e.NextRound()
				if !ok {
					continue
				}
				c.now = max(c.now, r.FireAt())
				res, err := e.Mine(r)
				if err != nil || res == nil {
					t.Fatalf("seed %d step %d: mine: %v", seed, step, err)
				}
				m.connect(res.Block)
			default: // i hears of j's chain
				j := (i + 1 + rng.Intn(n-1)) % n
				theirs, fork := c.engines[j].Chain().Blocks()[1:], 0
				for fork < len(theirs) && fork < len(m.chain) && theirs[fork] == m.chain[fork] {
					fork++
				}
				suffix := theirs[fork:]
				switch {
				case len(theirs) <= len(m.chain): // not longer: refused, nothing moves
					if _, ok := e.AdoptSuffix(suffix); ok {
						t.Fatalf("seed %d step %d: adopted a chain that is not longer", seed, step)
					}
				case fork == len(m.chain) && rng.Intn(2) == 0: // extends the tip, block by block
					for _, b := range suffix {
						if _, err := e.ReceiveBlock(b); err != nil {
							t.Fatalf("seed %d step %d: receive: %v", seed, step, err)
						}
						m.connect(b)
					}
				default: // one suffix: catch-up or true fork
					if fork < len(m.chain) {
						forks++
					}
					before := len(m.pool)
					if _, ok := e.AdoptSuffix(suffix); !ok {
						t.Fatalf("seed %d step %d: valid suffix refused", seed, step)
					}
					m.reorg(fork, suffix, c.now)
					repooled += max(0, len(m.pool)-before)
				}
			}
			for k, mk := range models {
				mk.check(t, step, k, c.engines[k], c.now)
			}
		}
		for _, m := range models {
			for _, it := range m.accepted {
				if it.Expired(c.now) {
					expired++
				}
			}
		}
		if forks == 0 || repooled == 0 || expired == 0 {
			t.Fatalf("seed %d exercised %d forks, %d re-pooled items, %d expiries: the walk is too tame", seed, forks, repooled, expired)
		}
		t.Logf("seed %d: %d forks, %d re-pooled items, %d expiries over %d steps", seed, forks, repooled, expired, steps)
	}
}
