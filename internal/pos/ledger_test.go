package pos

import (
	"math/rand"
	"testing"

	"repro/internal/identity"
)

// TestIndexOfMatchesMap checks the ledger's sorted roster index against a
// map from address to position over random rosters of 0-300 accounts: every
// member, a roster that names an address twice (a map keeps the last
// position, and so must IndexOf) and addresses that are not in the roster,
// among them ones that sort before, between and after every member. A clone
// answers the same.
func TestIndexOfMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	addr := func() (a identity.Address) {
		rng.Read(a[:])
		return a
	}
	var top identity.Address
	for i := range top {
		top[i] = 0xff
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(301)
		roster := make([]identity.Address, n)
		want := make(map[identity.Address]int, n)
		for i := range roster {
			roster[i] = addr()
			if i > 0 && rng.Intn(10) == 0 {
				roster[i] = roster[rng.Intn(i)]
			}
			want[roster[i]] = i
		}
		l := NewLedger(roster)
		probes := append([]identity.Address{{}, top}, roster...)
		for k := 0; k < 50; k++ {
			probes = append(probes, addr())
		}
		if n > 0 {
			near := roster[rng.Intn(n)]
			near[identity.AddressSize-1]++ // one past a member, most likely not one
			probes = append(probes, near)
		}
		for _, ledger := range []*Ledger{l, l.Clone()} {
			for _, a := range probes {
				got, ok := ledger.IndexOf(a)
				w, wok := want[a]
				if ok != wok || got != w {
					t.Fatalf("trial %d (n=%d): IndexOf(%x) = %d, %v; the map says %d, %v", trial, n, a[:4], got, ok, w, wok)
				}
			}
		}
	}
}
