package edgechain

import (
	"math/rand"

	"repro/internal/alloc"
	"repro/internal/block"
	"repro/internal/geo"
	"repro/internal/identity"
	"repro/internal/netsim"
	"repro/internal/pos"
	"repro/internal/ufl"
)

// benchInstance builds a paper-shaped UFL instance with n nodes.
func benchInstance(n int) *ufl.Instance {
	rng := rand.New(rand.NewSource(1))
	pls, _ := netsim.PlaceConnected(geo.DefaultField(), n, 30, 70, rng)
	topo := netsim.NewTopology(netsim.HomePositions(pls), 70)
	states := make([]alloc.NodeState, n)
	for i := range states {
		states[i] = alloc.NodeState{Used: rng.Intn(200), Capacity: 250, MobilityRange: 30}
	}
	return alloc.NewPlanner(70).BuildInstance(topo, states)
}

// benchLedger builds a ledger with n accounts and a genesis block.
func benchLedger(n int) (*pos.Ledger, *block.Block) {
	rng := rand.New(rand.NewSource(2))
	accounts := make([]identity.Address, n)
	for i := range accounts {
		accounts[i] = identity.GenerateSeeded(rng).Address()
	}
	return pos.NewLedger(accounts), block.Genesis(1)
}
