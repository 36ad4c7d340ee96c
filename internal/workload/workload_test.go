package workload

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Config is the legacy generator's parameter set: constant-rate Poisson
// arrivals, uniform producers, round-robin types. StreamConfig is its
// superset.
type Config struct {
	Duration        time.Duration
	RatePerMin      float64
	NumNodes        int
	Requesters      []int
	RequestsPerItem int
	Types           []string
	Seed            int64
}

// Stream lifts the legacy configuration into the open-loop engine's
// parameter space; the resulting stream replays the legacy RNG sequence
// exactly.
func (c Config) Stream() StreamConfig {
	return StreamConfig{
		Duration:        c.Duration,
		RatePerMin:      c.RatePerMin,
		NumNodes:        c.NumNodes,
		Requesters:      c.Requesters,
		RequestsPerItem: c.RequestsPerItem,
		Types:           c.Types,
		Seed:            c.Seed,
	}
}

// generate drains the stream a legacy configuration describes.
func generate(cfg Config) (*Trace, error) {
	s, err := NewStream(cfg.Stream())
	if err != nil {
		return nil, err
	}
	return s.Drain(), nil
}

func baseConfig() Config {
	return Config{
		Duration:        500 * time.Minute,
		RatePerMin:      2,
		NumNodes:        30,
		Requesters:      []int{3, 9, 21},
		RequestsPerItem: 1,
		Seed:            1,
	}
}

func TestGenerateRate(t *testing.T) {
	tr, err := generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Expected 1000 events (2/min over 500 min); Poisson sd ~ 32.
	if tr.Len() < 850 || tr.Len() > 1150 {
		t.Fatalf("trace has %d events, want ≈1000", tr.Len())
	}
}

func TestGenerateOrderingAndBounds(t *testing.T) {
	cfg := baseConfig()
	tr, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev time.Duration
	for i, e := range tr.Events {
		if e.At < prev {
			t.Fatalf("event %d out of order", i)
		}
		prev = e.At
		if e.At > cfg.Duration {
			t.Fatalf("event %d beyond horizon", i)
		}
		if e.Producer < 0 || e.Producer >= cfg.NumNodes {
			t.Fatalf("event %d producer %d out of range", i, e.Producer)
		}
		if e.Type == "" {
			t.Fatalf("event %d missing type", i)
		}
		for _, r := range e.Requesters {
			if r == e.Producer {
				t.Fatalf("event %d requester is the producer", i)
			}
		}
		if len(e.Requesters) > cfg.RequestsPerItem {
			t.Fatalf("event %d has %d requesters, want ≤ %d", i, len(e.Requesters), cfg.RequestsPerItem)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	cfg := baseConfig()
	cfg.Seed = 2
	c, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateZeroRate(t *testing.T) {
	cfg := baseConfig()
	cfg.RatePerMin = 0
	tr, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Fatalf("zero rate produced %d events", tr.Len())
	}
}

func TestGenerateErrors(t *testing.T) {
	cfg := baseConfig()
	cfg.NumNodes = 0
	if _, err := generate(cfg); err == nil {
		t.Fatal("zero nodes accepted")
	}
	cfg = baseConfig()
	cfg.RatePerMin = -1
	if _, err := generate(cfg); err == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestDrawRequestersMultiple(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got := drawRequesters(rng, []int{1, 2, 3, 4}, 2, 3)
	if len(got) != 3 {
		t.Fatalf("got %v, want 3 requesters", got)
	}
	seen := map[int]bool{}
	for _, r := range got {
		if r == 2 {
			t.Fatal("producer drawn as requester")
		}
		if seen[r] {
			t.Fatal("duplicate requester")
		}
		seen[r] = true
	}
	// Asking for more than available caps at the pool size.
	got = drawRequesters(rng, []int{1, 2}, 1, 5)
	if len(got) != 1 {
		t.Fatalf("got %v", got)
	}
}

func TestPickRequesterPool(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pool := PickRequesterPool(30, 0.10, rng)
	if len(pool) != 3 {
		t.Fatalf("pool = %v, want 3 nodes", pool)
	}
	for i := 1; i < len(pool); i++ {
		if pool[i] <= pool[i-1] {
			t.Fatal("pool not sorted unique")
		}
	}
	if got := PickRequesterPool(5, 0.01, rng); len(got) != 1 {
		t.Fatalf("tiny fraction should floor at 1 requester, got %v", got)
	}
	if got := PickRequesterPool(3, 0, rng); len(got) != 0 {
		t.Fatalf("zero fraction should give empty pool, got %v", got)
	}
}
