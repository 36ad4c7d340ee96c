// Open-loop streaming workload engine.
//
// A materialized trace caps workloads at what fits in memory and at the
// paper's tiny Section VI-A rates. Stream generates the events lazily — one at a time,
// O(1) memory regardless of horizon or rate — and extends the model along
// three axes the evaluation scenarios (vehicles, smartphones) need:
//
//   - Arrival processes: constant-rate Poisson (the paper's), a diurnal
//     sinusoid, and periodic burst/flash-crowd windows, freely composed
//     as a time-varying rate r(t) sampled by Lewis–Shedler thinning.
//   - Popularity skew: data types drawn Zipf-distributed by rank instead
//     of round-robin cycling.
//   - User multiplexing: millions of logical users mapped onto the
//     physical node set through a stateless hashed session map that is
//     re-keyed every SessionEpoch (mobility: a vehicle hops to another
//     edge node) and never resolves to a node the alive mask rejects.
//
// Everything is driven by one seeded RNG: the same StreamConfig always
// yields the same event sequence. A StreamConfig with none of the new
// knobs set reproduces the original materializing generator event-for-event
// (the differential test in stream_test.go pins this).
package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// StreamConfig parametrizes an open-loop event stream. The zero knobs
// (no diurnal, no burst, no users, no skew) make the stream equivalent to
// the original materializing generator for the same Seed.
type StreamConfig struct {
	// Duration is the stream horizon; Next returns ok=false past it.
	Duration time.Duration
	// RatePerMin is the base network-wide production rate (paper: 1-3).
	RatePerMin float64

	// DiurnalPeriod, when positive, modulates the rate sinusoidally:
	// r(t) = base · (1 + DiurnalAmplitude·sin(2πt/period)). Amplitude must
	// lie in [0, 1]; the peak sits at period/4.
	DiurnalPeriod    time.Duration
	DiurnalAmplitude float64

	// BurstEvery, when positive, opens a flash-crowd window of
	// BurstDuration every BurstEvery, starting at BurstOffset, during
	// which the rate is multiplied by BurstFactor (≥ 1).
	BurstEvery    time.Duration
	BurstDuration time.Duration
	BurstOffset   time.Duration
	BurstFactor   float64

	// NumNodes is the physical node population.
	NumNodes int
	// Requesters is the consumer pool (paper: 10% of nodes); per-item
	// requesters are drawn from it without replacement, excluding the
	// producer.
	Requesters []int
	// RequestsPerItem consumers are drawn per item. Must not exceed
	// len(Requesters).
	RequestsPerItem int
	// Types are the produced data types (DefaultTypes if nil).
	Types []string
	// TypeZipfS, when > 1, draws each event's type Zipf(s)-distributed by
	// rank in Types (rank 0 most popular) instead of round-robin cycling.
	TypeZipfS float64

	// Users, when positive, multiplexes that many logical users over the
	// node set: each event's producer is a user mapped to a node by the
	// session map. 0 keeps the legacy behavior (producer drawn uniformly
	// from nodes).
	Users int64
	// UserZipfS, when > 1, skews which users produce (a few prolific
	// producers, a long tail). Requires Users > 0.
	UserZipfS float64
	// SessionEpoch, when positive, re-keys the user→node session map
	// every epoch (mobility). Requires Users > 0. 0 pins users to their
	// node for the whole stream.
	SessionEpoch time.Duration

	// Seed fixes the stream.
	Seed int64
}

// minGap is the floor on inter-arrival gaps (also the legacy clamp); it
// bounds the instantaneous event rate at 1000/s no matter the config.
const minGap = time.Millisecond

// Validate checks the configuration without building a stream.
func (c *StreamConfig) Validate() error {
	if c.NumNodes < 1 {
		return errors.New("workload: NumNodes must be positive")
	}
	if c.Duration < 0 {
		return errors.New("workload: negative duration")
	}
	if c.RatePerMin < 0 || math.IsNaN(c.RatePerMin) || math.IsInf(c.RatePerMin, 0) {
		return errors.New("workload: rate must be finite and non-negative")
	}
	if c.DiurnalPeriod < 0 {
		return errors.New("workload: negative diurnal period")
	}
	if c.DiurnalPeriod > 0 {
		if c.DiurnalAmplitude < 0 || c.DiurnalAmplitude > 1 || math.IsNaN(c.DiurnalAmplitude) {
			return errors.New("workload: diurnal amplitude must be in [0, 1]")
		}
	} else if c.DiurnalAmplitude != 0 {
		return errors.New("workload: diurnal amplitude without a period")
	}
	if c.BurstEvery < 0 || c.BurstDuration < 0 || c.BurstOffset < 0 {
		return errors.New("workload: negative burst timing")
	}
	if c.BurstEvery > 0 {
		if c.BurstDuration <= 0 || c.BurstDuration > c.BurstEvery {
			return errors.New("workload: burst duration must be in (0, BurstEvery]")
		}
		if c.BurstFactor < 1 || math.IsNaN(c.BurstFactor) || math.IsInf(c.BurstFactor, 0) {
			return errors.New("workload: burst factor must be finite and >= 1")
		}
	} else if c.BurstDuration != 0 || c.BurstFactor != 0 || c.BurstOffset != 0 {
		return errors.New("workload: burst knobs without BurstEvery")
	}
	if c.RequestsPerItem < 0 {
		return errors.New("workload: negative RequestsPerItem")
	}
	if c.RequestsPerItem > 0 {
		if len(c.Requesters) == 0 {
			return errors.New("workload: RequestsPerItem > 0 with an empty requester pool")
		}
		if c.RequestsPerItem > len(c.Requesters) {
			return fmt.Errorf("workload: RequestsPerItem %d exceeds requester pool of %d",
				c.RequestsPerItem, len(c.Requesters))
		}
	}
	for _, r := range c.Requesters {
		if r < 0 || r >= c.NumNodes {
			return fmt.Errorf("workload: requester %d outside node range [0, %d)", r, c.NumNodes)
		}
	}
	if s := c.TypeZipfS; s != 0 && (s <= 1 || math.IsNaN(s) || math.IsInf(s, 0)) {
		return errors.New("workload: TypeZipfS must be 0 (off) or > 1")
	}
	if c.Users < 0 {
		return errors.New("workload: negative Users")
	}
	if s := c.UserZipfS; s != 0 {
		if s <= 1 || math.IsNaN(s) || math.IsInf(s, 0) {
			return errors.New("workload: UserZipfS must be 0 (off) or > 1")
		}
		if c.Users == 0 {
			return errors.New("workload: UserZipfS without Users")
		}
	}
	if c.SessionEpoch < 0 {
		return errors.New("workload: negative SessionEpoch")
	}
	if c.SessionEpoch > 0 && c.Users == 0 {
		return errors.New("workload: SessionEpoch without Users")
	}
	return nil
}

// Stream is an open-loop streaming generator. Not safe for concurrent
// use; all state advances through Next.
type Stream struct {
	cfg       StreamConfig
	types     []string
	rng       *rand.Rand
	typeZipf  *rand.Zipf
	userZipf  *rand.Zipf
	alive     func(node int) bool
	now       time.Duration
	seq       int
	skipped   int
	exhausted bool
	lambdaMax float64 // peak rate, events per minute
	meanGap   time.Duration
	cand      []int // requester-draw scratch
}

// NewStream builds a streaming generator. The configuration is validated
// eagerly so hostile values fail here, not mid-generation.
func NewStream(cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stream{cfg: cfg, types: cfg.Types}
	if len(s.types) == 0 {
		s.types = DefaultTypes()
	}
	s.rng = rand.New(rand.NewSource(cfg.Seed))
	s.lambdaMax = cfg.RatePerMin
	if cfg.DiurnalPeriod > 0 {
		s.lambdaMax *= 1 + cfg.DiurnalAmplitude
	}
	if cfg.BurstEvery > 0 {
		s.lambdaMax *= cfg.BurstFactor
	}
	if s.lambdaMax > 0 {
		s.meanGap = time.Duration(60.0 / s.lambdaMax * float64(time.Second))
	}
	if cfg.TypeZipfS > 1 {
		s.typeZipf = rand.NewZipf(s.rng, cfg.TypeZipfS, 1, uint64(len(s.types)-1))
	}
	if cfg.UserZipfS > 1 {
		s.userZipf = rand.NewZipf(s.rng, cfg.UserZipfS, 1, uint64(cfg.Users-1))
	}
	return s, nil
}

// SetAlive installs the liveness mask consulted when mapping a producer
// to a node: the session map probes forward until fn accepts a node, so a
// user is never assigned to a node its driver knows is down. nil (the
// default) treats every node as alive.
func (s *Stream) SetAlive(fn func(node int) bool) { s.alive = fn }

// Skipped reports how many arrivals were discarded because no alive node
// could host the producer.
func (s *Stream) Skipped() int { return s.skipped }

// Seq reports how many events have been emitted so far.
func (s *Stream) Seq() int { return s.seq }

// rateAt returns the instantaneous target rate (events per minute) at t.
func (s *Stream) rateAt(t time.Duration) float64 {
	r := s.cfg.RatePerMin
	if s.cfg.DiurnalPeriod > 0 {
		phase := 2 * math.Pi * float64(t%s.cfg.DiurnalPeriod) / float64(s.cfg.DiurnalPeriod)
		r *= 1 + s.cfg.DiurnalAmplitude*math.Sin(phase)
	}
	if s.cfg.BurstEvery > 0 && t >= s.cfg.BurstOffset {
		if (t-s.cfg.BurstOffset)%s.cfg.BurstEvery < s.cfg.BurstDuration {
			r *= s.cfg.BurstFactor
		}
	}
	return r
}

// homogeneous reports whether the rate is constant (pure Poisson), in
// which case no thinning draw is made — this is what keeps the legacy
// RNG stream byte-identical.
func (s *Stream) homogeneous() bool {
	return s.cfg.DiurnalPeriod == 0 && s.cfg.BurstEvery == 0
}

// advance moves the clock to the next accepted arrival; false past the
// horizon (or when the rate is zero).
func (s *Stream) advance() bool {
	if s.exhausted || s.lambdaMax == 0 {
		s.exhausted = true
		return false
	}
	for {
		// Same arithmetic as the legacy generator so the pure-Poisson
		// stream stays bit-identical; overflow of the Duration conversion
		// (absurdly small rates) reads as "no further event in horizon".
		gap := time.Duration(s.rng.ExpFloat64() * float64(s.meanGap))
		if gap < minGap {
			gap = minGap
		}
		if gap < 0 || s.now+gap < s.now { // overflow
			s.exhausted = true
			return false
		}
		s.now += gap
		if s.now > s.cfg.Duration {
			s.exhausted = true
			return false
		}
		if s.homogeneous() {
			return true
		}
		// Lewis–Shedler thinning: candidate arrivals come at the peak
		// rate; accept with probability r(t)/λmax.
		if s.rng.Float64()*s.lambdaMax < s.rateAt(s.now) {
			return true
		}
	}
}

// splitmix64 is the session map's mixing function.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// sessionNode maps (seed, user, epoch) to a home node: stateless, O(1),
// uniform — millions of users cost no memory.
func sessionNode(seed, user, epoch int64, n int) int {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(user)*0xD1B54A32D192ED03 + uint64(epoch)*0x8CB92BA72F3D8DD7
	return int(splitmix64(x) % uint64(n))
}

// pickProducer selects the event's producing node (and logical user).
// ok=false when the alive mask rejects every node.
func (s *Stream) pickProducer() (node int, user int64, ok bool) {
	n := s.cfg.NumNodes
	if s.cfg.Users == 0 {
		// Legacy path: uniform over nodes, same single Intn draw.
		node = s.rng.Intn(n)
		user = -1
	} else {
		if s.userZipf != nil {
			user = int64(s.userZipf.Uint64())
		} else {
			user = s.rng.Int63n(s.cfg.Users)
		}
		var epoch int64
		if s.cfg.SessionEpoch > 0 {
			epoch = int64(s.now / s.cfg.SessionEpoch)
		}
		node = sessionNode(s.cfg.Seed, user, epoch, n)
	}
	if s.alive == nil {
		return node, user, true
	}
	// Deterministic linear probe: the user sticks to the first alive node
	// at or after its hashed home slot. No RNG is consumed, so liveness
	// changes never perturb the arrival/requester draws.
	for i := 0; i < n; i++ {
		probe := (node + i) % n
		if s.alive(probe) {
			return probe, user, true
		}
	}
	return 0, user, false
}

// pickType selects the event's data type.
func (s *Stream) pickType() string {
	if s.typeZipf != nil {
		return s.types[s.typeZipf.Uint64()]
	}
	return s.types[s.seq%len(s.types)]
}

// drawRequestersScratch is drawRequesters on the stream's reusable
// candidate buffer: same RNG consumption (one Shuffle of the filtered
// pool), one allocation for the returned slice only.
func (s *Stream) drawRequestersScratch(producer int) []int {
	pool := s.cfg.Requesters
	k := s.cfg.RequestsPerItem
	if k <= 0 || len(pool) == 0 {
		return nil
	}
	s.cand = s.cand[:0]
	for _, id := range pool {
		if id != producer {
			s.cand = append(s.cand, id)
		}
	}
	sort.Ints(s.cand)
	s.rng.Shuffle(len(s.cand), func(a, b int) {
		s.cand[a], s.cand[b] = s.cand[b], s.cand[a]
	})
	if k > len(s.cand) {
		k = len(s.cand)
	}
	out := append([]int(nil), s.cand[:k]...)
	sort.Ints(out)
	return out
}

// Next returns the next event in the stream; ok=false when the horizon is
// exhausted. Arrivals whose producer cannot be mapped to an alive node
// are skipped (counted by Skipped), not returned.
func (s *Stream) Next() (ev Event, ok bool) {
	for {
		if !s.advance() {
			return Event{}, false
		}
		node, user, alive := s.pickProducer()
		if !alive {
			s.skipped++
			continue
		}
		ev = Event{
			At:         s.now,
			Producer:   node,
			User:       user,
			Type:       s.pickType(),
			Requesters: s.drawRequestersScratch(node),
		}
		s.seq++
		return ev, true
	}
}

// Drain materializes the remaining stream into a Trace, for inspecting a
// whole workload offline; open-loop drivers should consume Next directly
// and never hold the whole workload in memory.
func (s *Stream) Drain() *Trace {
	tr := &Trace{}
	for {
		ev, ok := s.Next()
		if !ok {
			return tr
		}
		tr.Events = append(tr.Events, ev)
	}
}

// --- churn traces -----------------------------------------------------------

// ChurnEvent is one scheduled node outage: Node goes down at At and comes
// back Down later.
type ChurnEvent struct {
	At   time.Duration
	Node int
	Down time.Duration
}

// ChurnConfig parametrizes a churn trace.
type ChurnConfig struct {
	// Horizon bounds event times.
	Horizon time.Duration
	// EventsPerMin is the outage arrival rate (Poisson).
	EventsPerMin float64
	// MeanDown is the mean outage length (exponential, floored at 1s).
	MeanDown time.Duration
	// NumNodes is the node population; victims are drawn uniformly from
	// the nodes not listed in Protect.
	NumNodes int
	// Protect lists node IDs never taken down (e.g. content producers).
	Protect []int
	// Seed fixes the trace.
	Seed int64
}

// Validate checks the churn configuration.
func (c *ChurnConfig) Validate() error {
	if c.NumNodes < 1 {
		return errors.New("workload: churn NumNodes must be positive")
	}
	if c.Horizon < 0 {
		return errors.New("workload: negative churn horizon")
	}
	if c.EventsPerMin < 0 || math.IsNaN(c.EventsPerMin) || math.IsInf(c.EventsPerMin, 0) {
		return errors.New("workload: churn rate must be finite and non-negative")
	}
	if c.MeanDown < 0 {
		return errors.New("workload: negative MeanDown")
	}
	seen := make(map[int]bool, len(c.Protect))
	for _, p := range c.Protect {
		if p < 0 || p >= c.NumNodes {
			return fmt.Errorf("workload: protected node %d outside range [0, %d)", p, c.NumNodes)
		}
		seen[p] = true
	}
	if len(seen) >= c.NumNodes {
		return errors.New("workload: every node protected, churn has no victims")
	}
	return nil
}

// GenerateChurn materializes a deterministic churn trace: Poisson outage
// times, uniform victims among unprotected nodes, exponential outage
// lengths. Churn traces are small (tens of events), so unlike the data
// stream they are materialized.
func GenerateChurn(cfg ChurnConfig) ([]ChurnEvent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.EventsPerMin == 0 || cfg.Horizon == 0 {
		return nil, nil
	}
	protected := make(map[int]bool, len(cfg.Protect))
	for _, p := range cfg.Protect {
		protected[p] = true
	}
	victims := make([]int, 0, cfg.NumNodes-len(protected))
	for i := 0; i < cfg.NumNodes; i++ {
		if !protected[i] {
			victims = append(victims, i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	meanGap := time.Duration(60.0 / cfg.EventsPerMin * float64(time.Second))
	var out []ChurnEvent
	at := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(meanGap))
		if gap < minGap {
			gap = minGap
		}
		if gap < 0 || at+gap < at {
			return out, nil
		}
		at += gap
		if at > cfg.Horizon {
			return out, nil
		}
		down := time.Duration(rng.ExpFloat64() * float64(cfg.MeanDown))
		if down < time.Second {
			down = time.Second
		}
		out = append(out, ChurnEvent{
			At:   at,
			Node: victims[rng.Intn(len(victims))],
			Down: down,
		})
	}
}
