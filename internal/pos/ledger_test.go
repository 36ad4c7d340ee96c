package pos

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
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

// TestAddressOrderMatchesComparator checks the ledger's radix-built index
// against a comparison sort of the roster positions by (address, position)
// over random rosters of 1-1000 accounts, in which some accounts share their
// leading 8 bytes (and some their leading 8 and all but the last byte) and
// some repeat an earlier address outright, so the equal-prefix runs the
// comparator orders are exercised beside the radix passes.
func TestAddressOrderMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(1000)
		if trial < 10 {
			n = 1 + trial // the smallest rosters, every one
		}
		roster := make([]identity.Address, n)
		for i := range roster {
			rng.Read(roster[i][:])
			if i == 0 {
				continue
			}
			switch rng.Intn(8) {
			case 0: // an earlier account's prefix, a fresh rest
				copy(roster[i][:8], roster[rng.Intn(i)][:8])
			case 1: // an earlier account's address but its last byte
				last := roster[i][identity.AddressSize-1]
				roster[i] = roster[rng.Intn(i)]
				roster[i][identity.AddressSize-1] = last
			case 2: // an earlier account outright
				roster[i] = roster[rng.Intn(i)]
			}
		}
		if trial%3 == 0 { // one prefix for the whole roster: a single run
			for i := range roster {
				copy(roster[i][:8], roster[0][:8])
			}
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(x, y int32) int {
			return cmp.Or(bytes.Compare(roster[x][:], roster[y][:]), cmp.Compare(x, y))
		})
		if got := NewLedger(roster).byAddr; !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): index %v, the comparison sort says %v", trial, n, got, want)
		}
	}
}
