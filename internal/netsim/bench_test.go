package netsim

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/sim"
)

func benchNetwork(b *testing.B, n int) (*sim.VClock, *Network) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	pls, err := geo.PlaceNodesConnected(geo.DefaultField(), n, 30, 70, rng, 100)
	if err != nil {
		b.Fatal(err)
	}
	clock := sim.NewVClock(time.Time{})
	nw := New(clock, geo.DefaultField(), pls, 70, DefaultConfig(), rng)
	for i := 0; i < n; i++ {
		nw.Attach(NodeID(i), HandlerFunc(func(NodeID, Message) {}))
	}
	return clock, nw
}

func BenchmarkBroadcast50(b *testing.B) {
	clock, nw := benchNetwork(b, 50)
	msg := testMsg{size: 8 << 10, kind: "block"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Broadcast(0, msg)
		clock.Advance(time.Minute)
	}
}

func BenchmarkUnicast50(b *testing.B) {
	clock, nw := benchNetwork(b, 50)
	msg := testMsg{size: 1 << 20, kind: "data"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Unicast(0, NodeID(49), msg)
		clock.Advance(time.Minute)
	}
}

func BenchmarkTopologyRebuild50(b *testing.B) {
	_, nw := benchNetwork(b, 50)
	mob := &Mobility{Field: geo.DefaultField(), Placements: nw.Placements(), RNG: rand.New(rand.NewSource(2))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.SetPositions(mob.Step())
	}
}
