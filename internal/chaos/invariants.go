package chaos

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/identity"
	"repro/internal/livenode"
	"repro/internal/pos"
	"repro/internal/repair"
)

// CheckConvergence verifies that every node holds the identical chain:
// same height and the same block hash at every index.
func CheckConvergence(nodes []*livenode.Node) error {
	if len(nodes) < 2 {
		return nil
	}
	ref := nodes[0].ChainSnapshot()
	for k, n := range nodes[1:] {
		snap := n.ChainSnapshot()
		if len(snap) != len(ref) {
			return fmt.Errorf("chaos: node %d at height %d, node 0 at %d", k+1, len(snap)-1, len(ref)-1)
		}
		for h := range snap {
			if snap[h].Hash != ref[h].Hash {
				return fmt.Errorf("chaos: node %d diverges from node 0 at height %d", k+1, h)
			}
		}
	}
	return nil
}

// CheckHeaderConvergence verifies that every node agrees on height and on
// the header hash at every height — the convergence check that still works
// in a mixed cluster where some replicas pruned their block bodies away.
// Nodes that mined (or backfilled) from genesis keep the full header
// spine, so the comparison spans the whole chain.
func CheckHeaderConvergence(nodes []*livenode.Node) error {
	if len(nodes) < 2 {
		return nil
	}
	ref := nodes[0]
	height := ref.Height()
	for k, n := range nodes[1:] {
		if got := n.Height(); got != height {
			return fmt.Errorf("chaos: node %d at height %d, node 0 at %d", k+1, got, height)
		}
		for h := uint64(0); h <= height; h++ {
			want, ok1 := ref.HeaderHashAt(h)
			got, ok2 := n.HeaderHashAt(h)
			if !ok1 || !ok2 {
				return fmt.Errorf("chaos: header at height %d missing (node 0: %v, node %d: %v)", h, ok1, k+1, ok2)
			}
			if got != want {
				return fmt.Errorf("chaos: node %d header diverges from node 0 at height %d", k+1, h)
			}
		}
	}
	return nil
}

// CheckChainValidity replays the whole snapshot end-to-end: structural
// validation (hashes, links, item signatures) plus PoS claim validation of
// every block against a scratch ledger built from the same prefix —
// exactly what an honest node would accept over the wire.
func CheckChainValidity(snapshot []*block.Block, accounts []identity.Address, params pos.Params) error {
	if err := chain.Validate(snapshot); err != nil {
		return fmt.Errorf("chaos: adopted chain invalid: %w", err)
	}
	scratch := pos.NewLedger(accounts)
	for i := 1; i < len(snapshot); i++ {
		if err := params.ValidateClaim(snapshot[i-1], snapshot[i], scratch); err != nil {
			return fmt.Errorf("chaos: block %d PoS claim: %w", i, err)
		}
		if err := scratch.ApplyBlock(snapshot[i]); err != nil {
			return fmt.Errorf("chaos: block %d ledger apply: %w", i, err)
		}
	}
	return nil
}

// CheckLedgerAccounting verifies that the node's live stake ledger (S_i,
// Q_i) and its placement storage view match an independent recomputation
// from the node's own chain replica — i.e. derived state never drifts from
// chain contents across forks, replays and restarts. The storage view is
// recomputed through a fresh engine.StorageView replay, which expires
// items at the same block timestamps, so expiry handling is covered too.
func CheckLedgerAccounting(n *livenode.Node, accounts []identity.Address) error {
	snap := n.ChainSnapshot()
	ref := pos.NewLedger(accounts)
	for _, b := range snap {
		if b.Index == 0 {
			continue
		}
		if err := ref.ApplyBlock(b); err != nil {
			return fmt.Errorf("chaos: recompute ledger: %w", err)
		}
	}
	refView := engine.NewStorageView(len(accounts), 0, 0)
	refView.Rebuild(snap)
	gotS, gotQ := n.LedgerStats()
	gotUsed := n.StorageUsed()
	for i := range accounts {
		if gotS[i] != ref.S(i) {
			return fmt.Errorf("chaos: S_%d = %d, chain says %d", i, gotS[i], ref.S(i))
		}
		if gotQ[i] != ref.Q(i) {
			return fmt.Errorf("chaos: Q_%d = %d, chain says %d", i, gotQ[i], ref.Q(i))
		}
		if want := refView.Used(i); gotUsed[i] != want {
			return fmt.Errorf("chaos: storage view used_%d = %d, chain says %d", i, gotUsed[i], want)
		}
	}
	return nil
}

// CheckReplication verifies the data plane has healed: from a provider
// index rebuilt off the first live node's chain, every item unexpired at
// its tip must have at least min(floor, live-node count) of its assigned
// providers among the live nodes, and every assigned live provider must
// actually hold the item's bytes. Run it only
// after the cluster has settled — mid-churn deficits are exactly what the
// repair plane exists to close.
func (c *Cluster) CheckReplication(floor int) error {
	var ref *livenode.Node
	live := 0
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		live++
		if ref == nil {
			ref = n
		}
	}
	if ref == nil {
		return nil
	}
	idx := repair.NewIndex(c.opts.N)
	idx.Rebuild(ref.ChainSnapshot())
	want := floor
	if want > live {
		want = live
	}
	for _, id := range idx.IDs() {
		alive := 0
		for _, p := range idx.Providers(id) {
			if c.nodes[p] == nil {
				continue
			}
			alive++
			if !c.nodes[p].HasData(id) {
				return fmt.Errorf("chaos: node %d is assigned item %s but does not hold its bytes", p, id)
			}
		}
		if alive < want {
			return fmt.Errorf("chaos: item %s has %d live replicas, want >= %d", id, alive, want)
		}
	}
	return nil
}

// CommonPrefix returns the hashes of the longest chain prefix shared by
// every node (genesis included). Nodes in a partitioned cluster agree on
// exactly this prefix; safety demands it is never rolled back.
func CommonPrefix(nodes []*livenode.Node) []block.Hash {
	if len(nodes) == 0 {
		return nil
	}
	snaps := make([][]*block.Block, len(nodes))
	minLen := -1
	for i, n := range nodes {
		snaps[i] = n.ChainSnapshot()
		if minLen < 0 || len(snaps[i]) < minLen {
			minLen = len(snaps[i])
		}
	}
	var prefix []block.Hash
	for h := 0; h < minLen; h++ {
		want := snaps[0][h].Hash
		for _, s := range snaps[1:] {
			if s[h].Hash != want {
				return prefix
			}
		}
		prefix = append(prefix, want)
	}
	return prefix
}

// CheckPrefixPreserved verifies the node's chain still begins with the
// given prefix — no committed common block was rolled back.
func CheckPrefixPreserved(prefix []block.Hash, n *livenode.Node) error {
	snap := n.ChainSnapshot()
	if len(snap) < len(prefix) {
		return fmt.Errorf("chaos: chain of %d blocks shorter than preserved prefix of %d", len(snap), len(prefix))
	}
	for h, want := range prefix {
		if snap[h].Hash != want {
			return fmt.Errorf("chaos: committed block at height %d rolled back past heal-time common prefix", h)
		}
	}
	return nil
}
