package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/meta"
	"repro/internal/repair"
	"repro/internal/ufl"
)

// testSolve opens the two facilities with the lowest finite opening cost
// (ties by index): with the harness's degenerate all-at-origin topology the
// greedy solver opens everything, which leaves repair nothing to do, so the
// repair tests pin placements to exactly the replica floor.
func testSolve(in *ufl.Instance) (*ufl.Solution, error) {
	type cand struct {
		i    int
		cost float64
	}
	var cands []cand
	for i := 0; i < in.NFacilities(); i++ {
		if !math.IsInf(in.OpenCost[i], 1) {
			cands = append(cands, cand{i, in.OpenCost[i]})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].cost != cands[b].cost {
			return cands[a].cost < cands[b].cost
		}
		return cands[a].i < cands[b].i
	})
	if len(cands) > 2 {
		cands = cands[:2]
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("testSolve: every facility full")
	}
	open := make([]int, 0, len(cands))
	for _, c := range cands {
		open = append(open, c.i)
	}
	sort.Ints(open)
	return &ufl.Solution{Open: open}, nil
}

// repairCluster builds a cluster whose engines share one mutable liveness
// table, with repair packing enabled and item placement pinned to two
// replicas by testSolve.
func repairCluster(t testing.TB, n int, status []repair.Status) *testCluster {
	t.Helper()
	return newTestCluster(t, n, func(i int, cfg *Config) {
		cfg.Planner.Solve = testSolve
		cfg.Liveness = func(j int) repair.Status {
			if j < 0 || j >= len(status) {
				return repair.Dead
			}
			return status[j]
		}
	})
}

// mineNextRes is mineNext but keeps the winner's MineResult.
func (c *testCluster) mineNextRes(t testing.TB) *MineResult {
	t.Helper()
	winner := -1
	var best Round
	for i, e := range c.engines {
		r, ok := e.NextRound()
		if !ok {
			continue
		}
		if winner < 0 || r.FireAt() < best.FireAt() {
			winner, best = i, r
		}
	}
	if winner < 0 {
		t.Fatal("no engine can mine")
	}
	c.now = best.FireAt()
	res, err := c.engines[winner].Mine(best)
	if err != nil {
		t.Fatalf("engine %d mine: %v", winner, err)
	}
	if res == nil {
		t.Fatalf("engine %d: round moved on unexpectedly", winner)
	}
	for i, e := range c.engines {
		if i == winner {
			continue
		}
		if _, err := e.ReceiveBlock(res.Block); err != nil {
			t.Fatalf("engine %d receive: %v", i, err)
		}
	}
	return res
}

func TestMineRepairsItemWithDeadProvider(t *testing.T) {
	status := make([]repair.Status, 4)
	c := repairCluster(t, 4, status)
	it := c.item(0, "repair-me")
	for _, e := range c.engines {
		e.AddMetadata(it)
	}
	c.mineNextRes(t)
	li := c.engines[0].LiveItem(it.ID)
	if li == nil || len(li.StoringNodes) != 2 {
		t.Fatalf("item not placed on 2 nodes: %v", li)
	}
	dead, survivor := li.StoringNodes[0], li.StoringNodes[1]
	status[dead] = repair.Dead

	res := c.mineNextRes(t)
	if res.Repairs != 1 {
		t.Fatalf("Repairs = %d, want 1", res.Repairs)
	}
	for _, e := range c.engines {
		got := e.LiveItem(it.ID).StoringNodes
		if len(got) != 2 {
			t.Fatalf("repaired set %v, want 2 replicas", got)
		}
		hasSurvivor := false
		for _, sn := range got {
			if sn == dead {
				t.Fatalf("repaired set %v still contains dead node %d", got, dead)
			}
			if sn == survivor {
				hasSurvivor = true
			}
		}
		if !hasSurvivor {
			t.Fatalf("repaired set %v dropped surviving provider %d", got, survivor)
		}
	}

	// At the floor again: the next block packs no further repairs.
	if res := c.mineNextRes(t); res.Repairs != 0 {
		t.Fatalf("Repairs = %d after recovery, want 0", res.Repairs)
	}
}

func TestMineNoRepairForSuspect(t *testing.T) {
	status := make([]repair.Status, 4)
	c := repairCluster(t, 4, status)
	it := c.item(0, "suspect-held")
	for _, e := range c.engines {
		e.AddMetadata(it)
	}
	c.mineNextRes(t)
	before := c.engines[0].LiveItem(it.ID).StoringNodes
	// Hysteresis: a merely suspect provider keeps its replica counted.
	status[before[0]] = repair.Suspect
	res := c.mineNextRes(t)
	if res.Repairs != 0 {
		t.Fatalf("Repairs = %d for suspect provider, want 0", res.Repairs)
	}
	after := c.engines[0].LiveItem(it.ID).StoringNodes
	if !slices.Equal(before, after) {
		t.Fatalf("storing set changed %v -> %v without a dead provider", before, after)
	}
}

func TestPickRepairsFloorCapsAtAliveCount(t *testing.T) {
	status := make([]repair.Status, 3)
	c := repairCluster(t, 3, status)
	e := c.engines[0]
	it := c.item(0, "last-replica")
	it.StoringNodes = []int{0}
	e.view.items.Apply(it)
	// Only node 0 is alive: the effective floor drops to 1, so the single
	// surviving replica is enough and no futile repair is packed.
	status[1], status[2] = repair.Dead, repair.Dead
	states := []alloc.NodeState{
		{Used: 1, Capacity: 250},
		{Used: 1, Capacity: 250},
		{Used: 1, Capacity: 250},
	}
	if out := e.pickRepairs(e.cfg.Topology(), states, c.now, nil); len(out) != 0 {
		t.Fatalf("packed %d repairs with floor capped at 1 alive node", len(out))
	}
}

func TestPickRepairsSkipsExpiredAndAnnounced(t *testing.T) {
	status := make([]repair.Status, 4)
	c := repairCluster(t, 4, status)
	e := c.engines[0]
	gone := c.item(0, "expired")
	gone.ValidFor = time.Second
	gone.StoringNodes = []int{1}
	e.view.items.Apply(gone)
	held := c.item(0, "already-in-block")
	held.StoringNodes = []int{1}
	e.view.items.Apply(held)
	needy := c.item(0, "actually-needs-repair")
	needy.StoringNodes = []int{1}
	e.view.items.Apply(needy)
	status[1] = repair.Dead
	c.now = gone.Produced + time.Hour
	states := make([]alloc.NodeState, 4)
	for i := range states {
		states[i] = alloc.NodeState{Used: 1, Capacity: 250}
	}
	out := e.pickRepairs(e.cfg.Topology(), states, c.now,
		map[meta.DataID]bool{held.ID: true})
	if len(out) != 1 || out[0].ID != needy.ID {
		t.Fatalf("pickRepairs = %v, want exactly the non-skipped live item", out)
	}
	for _, sn := range out[0].StoringNodes {
		if sn == 1 {
			t.Fatalf("repair set %v kept dead node 1", out[0].StoringNodes)
		}
	}
}

// A block packs at most repairMaxPerBlock repairs however many items a
// death leaves under their floor; the cursor takes the rest in later blocks.
func TestPickRepairsCapsPerBlock(t *testing.T) {
	status := make([]repair.Status, 4)
	c := repairCluster(t, 4, status)
	e := c.engines[0]
	for k := 0; k < repairMaxPerBlock+2; k++ {
		it := c.item(0, fmt.Sprintf("needs-repair-%d", k))
		it.StoringNodes = []int{1}
		e.view.items.Apply(it)
	}
	status[1] = repair.Dead
	states := make([]alloc.NodeState, 4)
	for i := range states {
		states[i] = alloc.NodeState{Used: 1, Capacity: 250}
	}
	if out := e.pickRepairs(e.cfg.Topology(), states, c.now, nil); len(out) != repairMaxPerBlock {
		t.Fatalf("pickRepairs packed %d repairs, want the cap of %d", len(out), repairMaxPerBlock)
	}
}
