package workload

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// legacyGenerate is a verbatim pin of the pre-stream materializing
// generator. The streaming engine must reproduce its output bit-for-bit
// so the Fig. 5 paired-trace experiments stay valid; if Stream's legacy
// path ever drifts, TestStreamMatchesLegacy catches it against this copy. (Event.User post-dates the pinned
// algorithm; -1 is the documented "no user model" value.)
func legacyGenerate(cfg Config) *Trace {
	types := cfg.Types
	if len(types) == 0 {
		types = DefaultTypes()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &Trace{}
	if cfg.RatePerMin == 0 {
		return tr
	}
	meanGap := time.Duration(60.0 / cfg.RatePerMin * float64(time.Second))
	at := time.Duration(0)
	seq := 0
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
		if gap < time.Millisecond {
			gap = time.Millisecond
		}
		at += gap
		if at > cfg.Duration {
			return tr
		}
		producer := rng.Intn(cfg.NumNodes)
		tr.Events = append(tr.Events, Event{
			At:         at,
			Producer:   producer,
			User:       -1,
			Type:       types[seq%len(types)],
			Requesters: drawRequesters(rng, cfg.Requesters, producer, cfg.RequestsPerItem),
		})
		seq++
	}
}

// TestStreamMatchesLegacy is the differential gate: for legacy configs
// the streaming generator, drained or pulled event by event, must
// reproduce the pinned materializing algorithm event-for-event.
func TestStreamMatchesLegacy(t *testing.T) {
	configs := map[string]Config{
		"base": baseConfig(),
		"no-requesters": {
			Duration: 200 * time.Minute, RatePerMin: 3, NumNodes: 10, Seed: 7,
		},
		"wide-pool": {
			Duration: 100 * time.Minute, RatePerMin: 1.5, NumNodes: 50,
			Requesters: []int{0, 1, 2, 3, 4, 5, 6, 7}, RequestsPerItem: 3,
			Types: []string{"A", "B"}, Seed: 42,
		},
		"single-node": {
			Duration: 60 * time.Minute, RatePerMin: 2, NumNodes: 1,
			Requesters: []int{0}, RequestsPerItem: 1, Seed: 3,
		},
		"zero-rate": {
			Duration: 60 * time.Minute, RatePerMin: 0, NumNodes: 5, Seed: 9,
		},
	}
	for name, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			cfg.Seed += seed
			want := legacyGenerate(cfg)
			got, err := generate(cfg)
			if err != nil {
				t.Fatalf("%s/seed+%d: %v", name, seed, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s/seed+%d: stream diverged from pinned legacy generator: %d vs %d events",
					name, seed, want.Len(), got.Len())
			}
			// Same through the streaming interface directly.
			s, err := NewStream(cfg.Stream())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; ; i++ {
				ev, ok := s.Next()
				if !ok {
					if i != want.Len() {
						t.Fatalf("%s/seed+%d: stream ended after %d events, want %d", name, seed, i, want.Len())
					}
					break
				}
				if !reflect.DeepEqual(ev, want.Events[i]) {
					t.Fatalf("%s/seed+%d: event %d differs: %+v vs %+v", name, seed, i, ev, want.Events[i])
				}
			}
		}
	}
}

// drainN pulls up to n events, failing the test if the stream is invalid.
func mustStream(t *testing.T, cfg StreamConfig) *Stream {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestArrivalRateWithin3Sigma checks that over a long horizon the event
// count lands within 3σ of the configured mean for each arrival process
// (Poisson count: σ = √mean).
func TestArrivalRateWithin3Sigma(t *testing.T) {
	const horizon = 2000 * time.Minute
	cases := []struct {
		name string
		cfg  StreamConfig
		mean float64 // expected events
	}{
		{
			name: "poisson",
			cfg:  StreamConfig{Duration: horizon, RatePerMin: 5, NumNodes: 16, Seed: 11},
			mean: 5 * 2000,
		},
		{
			// Whole diurnal periods: the sinusoid integrates to zero, so
			// the mean is the base rate.
			name: "diurnal",
			cfg: StreamConfig{
				Duration: horizon, RatePerMin: 5, NumNodes: 16, Seed: 12,
				DiurnalPeriod: 100 * time.Minute, DiurnalAmplitude: 0.8,
			},
			mean: 5 * 2000,
		},
		{
			// 10× bursts for 1/10 of every cycle: mean factor 1.9.
			name: "burst",
			cfg: StreamConfig{
				Duration: horizon, RatePerMin: 5, NumNodes: 16, Seed: 13,
				BurstEvery: 100 * time.Minute, BurstDuration: 10 * time.Minute,
				BurstFactor: 10,
			},
			mean: 5 * 2000 * 1.9,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustStream(t, tc.cfg)
			n := float64(s.Drain().Len())
			sigma := math.Sqrt(tc.mean)
			if math.Abs(n-tc.mean) > 3*sigma {
				t.Fatalf("%.0f events, want %.0f ± %.0f (3σ)", n, tc.mean, 3*sigma)
			}
		})
	}
}

// TestBurstWindowRate checks the burst actually concentrates arrivals:
// the in-window rate must be close to BurstFactor times the out-window
// rate, not merely preserve the global mean.
func TestBurstWindowRate(t *testing.T) {
	cfg := StreamConfig{
		Duration: 4000 * time.Minute, RatePerMin: 5, NumNodes: 4, Seed: 5,
		BurstEvery: 100 * time.Minute, BurstDuration: 20 * time.Minute,
		BurstOffset: 10 * time.Minute, BurstFactor: 8,
	}
	s := mustStream(t, cfg)
	var in, out float64
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.At >= cfg.BurstOffset && (ev.At-cfg.BurstOffset)%cfg.BurstEvery < cfg.BurstDuration {
			in++
		} else {
			out++
		}
	}
	// Per-minute rates: 20 of every 100 minutes are in-window.
	inRate := in / (4000 * 20 / 100)
	outRate := out / (4000 * 80 / 100)
	if ratio := inRate / outRate; ratio < 6 || ratio > 10 {
		t.Fatalf("burst/base rate ratio %.2f, want ≈8", ratio)
	}
}

// TestZipfPopularityMonotone checks Zipf-skewed type draws are monotone
// non-increasing in rank: rank 0 most popular, each later rank no more
// popular than the one before (within sampling noise — with s=2 and this
// many samples the ordering is unambiguous).
func TestZipfPopularityMonotone(t *testing.T) {
	types := []string{"r0", "r1", "r2", "r3", "r4", "r5"}
	cfg := StreamConfig{
		Duration: 200 * time.Minute, RatePerMin: 600, NumNodes: 8,
		Types: types, TypeZipfS: 2, Seed: 21,
	}
	s := mustStream(t, cfg)
	counts := make(map[string]int)
	total := 0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		counts[ev.Type]++
		total++
	}
	if total < 50000 {
		t.Fatalf("only %d samples, want a long horizon", total)
	}
	for i := 1; i < len(types); i++ {
		if counts[types[i]] > counts[types[i-1]] {
			t.Fatalf("popularity not monotone in rank: %v", counts)
		}
	}
	if counts[types[0]] < total/2 {
		t.Fatalf("rank 0 has %d of %d draws — not Zipf(2) skewed", counts[types[0]], total)
	}
}

// TestUserZipfSkew checks the producing-user distribution is skewed when
// UserZipfS is set: low-ranked users dominate even with a huge population.
func TestUserZipfSkew(t *testing.T) {
	cfg := StreamConfig{
		Duration: 100 * time.Minute, RatePerMin: 600, NumNodes: 32,
		Users: 5_000_000, UserZipfS: 1.5, Seed: 31,
	}
	s := mustStream(t, cfg)
	counts := make(map[int64]int)
	total := 0
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.User < 0 || ev.User >= cfg.Users {
			t.Fatalf("user %d outside population", ev.User)
		}
		counts[ev.User]++
		total++
	}
	top := 0
	for u, c := range counts {
		if u < 100 {
			top += c
		}
	}
	if float64(top) < 0.5*float64(total) {
		t.Fatalf("top-100 users produced %d of %d events — no skew", top, total)
	}
}

// TestMobilityNeverDeadNode is the liveness-mask property: with a user
// population, mobility epochs, and an alive mask, no emitted event may
// name a dead or out-of-range producer — across mask changes mid-stream.
func TestMobilityNeverDeadNode(t *testing.T) {
	const n = 64
	cfg := StreamConfig{
		Duration: 500 * time.Minute, RatePerMin: 60, NumNodes: n,
		Users: 1_000_000, SessionEpoch: 5 * time.Minute, Seed: 41,
	}
	s := mustStream(t, cfg)
	dead := map[int]bool{}
	s.SetAlive(func(node int) bool { return !dead[node] })
	i := 0
	for {
		// Shift which third of the fleet is down as the stream progresses.
		phase := i / 1000 % 3
		for node := 0; node < n; node++ {
			dead[node] = node%3 == phase
		}
		ev, ok := s.Next()
		if !ok {
			break
		}
		if ev.Producer < 0 || ev.Producer >= n {
			t.Fatalf("event %d producer %d out of range", i, ev.Producer)
		}
		if dead[ev.Producer] {
			t.Fatalf("event %d assigned to dead node %d", i, ev.Producer)
		}
		i++
	}
	if i == 0 {
		t.Fatal("stream produced no events")
	}

	// All nodes dead: every arrival is skipped, none emitted.
	s2 := mustStream(t, cfg)
	s2.SetAlive(func(int) bool { return false })
	if _, ok := s2.Next(); ok {
		t.Fatal("event emitted with every node dead")
	}
	if s2.Skipped() == 0 {
		t.Fatal("no skipped arrivals counted")
	}
}

// TestAliveMaskDoesNotPerturbArrivals: the liveness probe consumes no
// randomness, so masking nodes changes only the producer column — times,
// users, and types stay identical.
func TestAliveMaskDoesNotPerturbArrivals(t *testing.T) {
	cfg := StreamConfig{
		Duration: 100 * time.Minute, RatePerMin: 30, NumNodes: 16,
		Users: 10_000, SessionEpoch: time.Minute, Seed: 51,
	}
	plain := mustStream(t, cfg).Drain()
	masked := mustStream(t, cfg)
	masked.SetAlive(func(node int) bool { return node%2 == 0 })
	for i := 0; ; i++ {
		ev, ok := masked.Next()
		if !ok {
			if i != plain.Len() {
				t.Fatalf("masked stream has %d events, plain %d", i, plain.Len())
			}
			break
		}
		want := plain.Events[i]
		if ev.At != want.At || ev.User != want.User || ev.Type != want.Type {
			t.Fatalf("event %d drifted under mask: %+v vs %+v", i, ev, want)
		}
		if ev.Producer%2 != 0 {
			t.Fatalf("event %d on masked-out node %d", i, ev.Producer)
		}
	}
}

// TestSessionEpochMobility: users change home nodes across epochs (the
// mobility model) but keep a stable node within one epoch.
func TestSessionEpochMobility(t *testing.T) {
	const n = 32
	moved := 0
	for user := int64(0); user < 1000; user++ {
		a := sessionNode(9, user, 0, n)
		b := sessionNode(9, user, 1, n)
		if a < 0 || a >= n || b < 0 || b >= n {
			t.Fatalf("session node out of range: %d, %d", a, b)
		}
		if a != b {
			moved++
		}
		if sessionNode(9, user, 0, n) != a {
			t.Fatal("session map not stable within an epoch")
		}
	}
	// A uniform remap moves a user with probability (n-1)/n ≈ 97%.
	if moved < 900 {
		t.Fatalf("only %d/1000 users moved across epochs", moved)
	}

	// The hash spreads users evenly over nodes.
	counts := make([]int, n)
	for user := int64(0); user < 32000; user++ {
		counts[sessionNode(9, user, 0, n)]++
	}
	for node, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("node %d hosts %d of 32000 users — session map not uniform", node, c)
		}
	}
}

// TestStreamConfigValidation covers the satellite requester-sampling
// fixes (empty pool, RequestsPerItem over pool size now fail eagerly)
// plus the rest of the hostile-config surface.
func TestStreamConfigValidation(t *testing.T) {
	valid := StreamConfig{Duration: time.Minute, RatePerMin: 1, NumNodes: 4, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*StreamConfig){
		"zero nodes":        func(c *StreamConfig) { c.NumNodes = 0 },
		"negative rate":     func(c *StreamConfig) { c.RatePerMin = -1 },
		"nan rate":          func(c *StreamConfig) { c.RatePerMin = math.NaN() },
		"inf rate":          func(c *StreamConfig) { c.RatePerMin = math.Inf(1) },
		"negative duration": func(c *StreamConfig) { c.Duration = -time.Second },
		"empty requester pool": func(c *StreamConfig) {
			c.RequestsPerItem = 1
		},
		"requests exceed pool": func(c *StreamConfig) {
			c.Requesters = []int{1, 2}
			c.RequestsPerItem = 3
		},
		"negative requests": func(c *StreamConfig) {
			c.Requesters = []int{1}
			c.RequestsPerItem = -1
		},
		"requester out of range": func(c *StreamConfig) {
			c.Requesters = []int{4}
			c.RequestsPerItem = 1
		},
		"negative requester": func(c *StreamConfig) {
			c.Requesters = []int{-1}
			c.RequestsPerItem = 1
		},
		"amplitude above 1": func(c *StreamConfig) {
			c.DiurnalPeriod = time.Minute
			c.DiurnalAmplitude = 1.5
		},
		"amplitude without period": func(c *StreamConfig) { c.DiurnalAmplitude = 0.5 },
		"negative period":          func(c *StreamConfig) { c.DiurnalPeriod = -time.Minute },
		"burst duration over cycle": func(c *StreamConfig) {
			c.BurstEvery = time.Minute
			c.BurstDuration = 2 * time.Minute
			c.BurstFactor = 2
		},
		"burst factor below 1": func(c *StreamConfig) {
			c.BurstEvery = time.Minute
			c.BurstDuration = time.Second
			c.BurstFactor = 0.5
		},
		"burst knobs without cycle": func(c *StreamConfig) { c.BurstFactor = 2 },
		"zipf s at 1":               func(c *StreamConfig) { c.TypeZipfS = 1 },
		"zipf s nan":                func(c *StreamConfig) { c.TypeZipfS = math.NaN() },
		"negative users":            func(c *StreamConfig) { c.Users = -1 },
		"user zipf without users":   func(c *StreamConfig) { c.UserZipfS = 2 },
		"epoch without users":       func(c *StreamConfig) { c.SessionEpoch = time.Minute },
		"negative epoch": func(c *StreamConfig) {
			c.Users = 10
			c.SessionEpoch = -time.Second
		},
	}
	for name, mutate := range cases {
		cfg := valid
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("%s: NewStream accepted", name)
		}
	}
}

// TestGenerateRequesterEdgeCases pins the requester-pool checks on legacy
// configurations: these used to silently cap at generation time.
func TestGenerateRequesterEdgeCases(t *testing.T) {
	cfg := baseConfig()
	cfg.Requesters = nil
	if _, err := generate(cfg); err == nil {
		t.Fatal("empty requester pool with RequestsPerItem > 0 accepted")
	}
	cfg = baseConfig()
	cfg.RequestsPerItem = len(cfg.Requesters) + 1
	if _, err := generate(cfg); err == nil {
		t.Fatal("RequestsPerItem above pool size accepted")
	}
	// RequestsPerItem == len(pool) stays legal: when the producer is in
	// the pool the draw caps at pool-1, as before.
	cfg = baseConfig()
	cfg.RequestsPerItem = len(cfg.Requesters)
	if _, err := generate(cfg); err != nil {
		t.Fatalf("RequestsPerItem == pool size rejected: %v", err)
	}
}

// TestGenerateChurn checks determinism, bounds, and protection of the
// churn trace generator.
func TestGenerateChurn(t *testing.T) {
	cfg := ChurnConfig{
		Horizon: 60 * time.Minute, EventsPerMin: 0.5, MeanDown: 2 * time.Minute,
		NumNodes: 16, Protect: []int{0, 1}, Seed: 6,
	}
	a, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different churn traces")
	}
	if len(a) < 10 {
		t.Fatalf("only %d churn events over an hour at 0.5/min", len(a))
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].At < a[j].At }) {
		t.Fatal("churn trace out of order")
	}
	for i, ev := range a {
		if ev.At > cfg.Horizon {
			t.Fatalf("churn event %d beyond horizon", i)
		}
		if ev.Node < 2 || ev.Node >= cfg.NumNodes {
			t.Fatalf("churn event %d hit protected/out-of-range node %d", i, ev.Node)
		}
		if ev.Down < time.Second {
			t.Fatalf("churn event %d outage %v below floor", i, ev.Down)
		}
	}

	if _, err := GenerateChurn(ChurnConfig{NumNodes: 2, Protect: []int{0, 1}, EventsPerMin: 1, Horizon: time.Minute}); err == nil {
		t.Fatal("fully protected population accepted")
	}
	if _, err := GenerateChurn(ChurnConfig{NumNodes: 0}); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := GenerateChurn(ChurnConfig{NumNodes: 4, Protect: []int{9}}); err == nil {
		t.Fatal("out-of-range protected node accepted")
	}
	if evs, err := GenerateChurn(ChurnConfig{NumNodes: 4, EventsPerMin: 0, Horizon: time.Hour}); err != nil || len(evs) != 0 {
		t.Fatalf("zero-rate churn: %v, %d events", err, len(evs))
	}
}

// TestStreamHotPathAllocs is the generator's alloc gate: steady-state
// Next must allocate nothing without a requester draw and exactly one
// slice (the returned requester set) with one.
func TestStreamHotPathAllocs(t *testing.T) {
	lean := mustStream(t, StreamConfig{
		Duration: time.Hour << 8, RatePerMin: 6000, NumNodes: 256,
		Users: 1_000_000, SessionEpoch: time.Minute,
		DiurnalPeriod: time.Hour, DiurnalAmplitude: 0.5,
		BurstEvery: time.Hour, BurstDuration: time.Minute, BurstFactor: 4,
		Seed: 61,
	})
	lean.SetAlive(func(node int) bool { return node%7 != 0 })
	if n := testing.AllocsPerRun(5000, func() {
		if _, ok := lean.Next(); !ok {
			t.Fatal("stream exhausted mid-gate")
		}
	}); n != 0 {
		t.Fatalf("requester-free Next allocates %.2f/op, want 0", n)
	}

	full := mustStream(t, StreamConfig{
		Duration: time.Hour << 8, RatePerMin: 6000, NumNodes: 256,
		Requesters: []int{1, 2, 3, 4, 5, 6, 7, 8}, RequestsPerItem: 3,
		Seed: 62,
	})
	if n := testing.AllocsPerRun(5000, func() {
		if _, ok := full.Next(); !ok {
			t.Fatal("stream exhausted mid-gate")
		}
	}); n > 1 {
		t.Fatalf("Next with requester draw allocates %.2f/op, want ≤ 1", n)
	}
}

// BenchmarkStreamNext measures the open-loop generator's event cost with
// the full feature set enabled (diurnal × burst thinning, million-user
// session map with mobility, Zipf types, requester draw).
func BenchmarkStreamNext(b *testing.B) {
	s, err := NewStream(StreamConfig{
		Duration: time.Hour << 12, RatePerMin: 6000, NumNodes: 256,
		Requesters: []int{1, 2, 3, 4, 5, 6, 7, 8}, RequestsPerItem: 2,
		Users: 1_000_000, UserZipfS: 1.2, SessionEpoch: time.Minute,
		DiurnalPeriod: time.Hour, DiurnalAmplitude: 0.5,
		BurstEvery: 6 * time.Hour, BurstDuration: 10 * time.Minute, BurstFactor: 10,
		TypeZipfS: 1.5, Seed: 71,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}

// FuzzWorkloadConfig throws hostile configurations at validation and the
// generator: NewStream must either reject the config or produce a
// well-formed bounded stream — never panic.
func FuzzWorkloadConfig(f *testing.F) {
	f.Add(int64(60_000), 2.0, int64(0), 0.0, int64(0), int64(0), int64(0), 0.0,
		30, 3, 1, 0.0, int64(0), 0.0, int64(0), int64(1))
	f.Add(int64(10_000), 600.0, int64(5000), 0.9, int64(7000), int64(500), int64(100), 10.0,
		256, 8, 3, 1.5, int64(1_000_000), 1.2, int64(1000), int64(7))
	f.Add(int64(-5), math.Inf(1), int64(-1), math.NaN(), int64(1), int64(2), int64(-3), 0.1,
		0, -2, 99, 1.0, int64(-8), math.NaN(), int64(-9), int64(0))
	f.Fuzz(func(t *testing.T, durMs int64, rate float64, diurMs int64, amp float64,
		burstEveryMs, burstDurMs, burstOffMs int64, burstFactor float64,
		numNodes, poolSize, rpi int, typeS float64, users int64, userS float64,
		epochMs int64, seed int64) {
		// Bound the horizon so a valid config drains in bounded work; every
		// other field is taken as-is, hostile values included.
		cfg := StreamConfig{
			Duration:         time.Duration(durMs%60_000) * time.Millisecond,
			RatePerMin:       rate,
			DiurnalPeriod:    time.Duration(diurMs) * time.Millisecond,
			DiurnalAmplitude: amp,
			BurstEvery:       time.Duration(burstEveryMs) * time.Millisecond,
			BurstDuration:    time.Duration(burstDurMs) * time.Millisecond,
			BurstOffset:      time.Duration(burstOffMs) * time.Millisecond,
			BurstFactor:      burstFactor,
			NumNodes:         numNodes,
			RequestsPerItem:  rpi,
			TypeZipfS:        typeS,
			Users:            users,
			UserZipfS:        userS,
			SessionEpoch:     time.Duration(epochMs) * time.Millisecond,
			Seed:             seed,
		}
		if poolSize > 0 {
			for i := 0; i < poolSize%64; i++ {
				cfg.Requesters = append(cfg.Requesters, i*3-1)
			}
		}
		s, err := NewStream(cfg)
		if err != nil {
			return
		}
		var prev time.Duration
		for i := 0; i < 500; i++ {
			ev, ok := s.Next()
			if !ok {
				break
			}
			if ev.At < prev || ev.At > cfg.Duration {
				t.Fatalf("event %d at %v out of order/horizon (prev %v)", i, ev.At, prev)
			}
			prev = ev.At
			if ev.Producer < 0 || ev.Producer >= cfg.NumNodes {
				t.Fatalf("event %d producer %d out of range", i, ev.Producer)
			}
			if cfg.Users == 0 && ev.User != -1 {
				t.Fatalf("event %d has user %d without a user model", i, ev.User)
			}
			if cfg.Users > 0 && (ev.User < 0 || ev.User >= cfg.Users) {
				t.Fatalf("event %d user %d outside population", i, ev.User)
			}
			if len(ev.Requesters) > cfg.RequestsPerItem {
				t.Fatalf("event %d has %d requesters, want ≤ %d", i, len(ev.Requesters), cfg.RequestsPerItem)
			}
			for _, r := range ev.Requesters {
				if r == ev.Producer || r < 0 || r >= cfg.NumNodes {
					t.Fatalf("event %d bad requester %d", i, r)
				}
			}
		}
	})
}
