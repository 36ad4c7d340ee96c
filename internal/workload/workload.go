// Package workload generates the evaluation's data-trading traces: data
// items appear network-wide with exponential interarrival at 1-3 items per
// minute, each produced by a random node and requested by consumers drawn
// from the requester pool (10% of nodes), per Section VI-A.
//
// The open-loop Stream (stream.go) produces the events lazily with O(1)
// memory, plus arrival-process, popularity-skew and user-multiplexing
// extensions. Replaying one StreamConfig yields the same events, which is
// how the Fig. 5 comparison runs optimal and random placement against an
// identical workload; with none of the extensions set, the stream is pinned
// bit-identical to the original materializing generator by a differential
// test.
package workload

import (
	"math/rand"
	"sort"
	"time"
)

// Event is one data production: a node creates an item at a virtual time
// and the listed requesters will ask for it once it appears in a block.
type Event struct {
	// At is the production time.
	At time.Duration
	// Producer is the producing node ID.
	Producer int
	// User is the logical producing user, or -1 when the generator runs
	// without a user model (legacy traces).
	User int64
	// Type is the data type string ("AirQuality/PM2.5", ...).
	Type string
	// Requesters are the consumer node IDs assigned to this item.
	Requesters []int
}

// Trace is a deterministic, time-ordered workload.
type Trace struct {
	Events []Event
}

// Len returns the number of events.
func (tr *Trace) Len() int { return len(tr.Events) }

// DefaultTypes are the sample data types from the paper's metadata
// examples plus the motivating scenarios.
func DefaultTypes() []string {
	return []string{
		"AirQuality/PM2.5", "Picture/Traffic", "Video/Clip",
		"Energy/Reading", "Road/Congestion",
	}
}

// drawRequesters picks up to k distinct requesters, excluding the producer.
func drawRequesters(rng *rand.Rand, pool []int, producer, k int) []int {
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	candidates := make([]int, 0, len(pool))
	for _, id := range pool {
		if id != producer {
			candidates = append(candidates, id)
		}
	}
	sort.Ints(candidates)
	rng.Shuffle(len(candidates), func(a, b int) {
		candidates[a], candidates[b] = candidates[b], candidates[a]
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	out := append([]int(nil), candidates[:k]...)
	sort.Ints(out)
	return out
}

// PickRequesterPool selects the paper's "10 percent of nodes" uniformly.
func PickRequesterPool(numNodes int, fraction float64, rng *rand.Rand) []int {
	want := int(float64(numNodes)*fraction + 0.5)
	if want < 1 && fraction > 0 {
		want = 1
	}
	if want > numNodes {
		want = numNodes
	}
	perm := rng.Perm(numNodes)
	out := append([]int(nil), perm[:want]...)
	sort.Ints(out)
	return out
}
