package repair

import "time"

// Status is a churn verdict for one roster node.
type Status int

const (
	// Alive: recent liveness evidence exists.
	Alive Status = iota
	// Suspect: the node has been silent past the suspicion window, or its
	// transport reported repeated send failures. Suspects are excluded
	// from new placements but do not yet trigger re-replication.
	Suspect
	// Dead: silent past suspicion plus the hysteresis window. Only now do
	// the node's assignments count as lost replicas.
	Dead
)

func (s Status) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	default:
		return "dead"
	}
}

// DetectorConfig parameterizes a Detector.
type DetectorConfig struct {
	// N is the roster size; Self is this node's index (always alive).
	N    int
	Self int
	// SuspectAfter is the silence that turns an alive node suspect.
	SuspectAfter time.Duration
	// Hysteresis is the ADDITIONAL silence (past SuspectAfter) before a
	// suspect counts dead. This is the storm brake: a transient partition
	// shorter than SuspectAfter+Hysteresis never triggers repair, because
	// repair acts only on Dead verdicts.
	Hysteresis time.Duration
	// FailThreshold is how many consecutive send failures force Suspect
	// immediately, without waiting out SuspectAfter (default 3).
	FailThreshold int
}

// Detector classifies roster nodes as alive, suspect or dead from the
// liveness evidence the transport feeds it. It is pure state: callers
// pass the current time into every method, and verdicts are a
// deterministic function of the reported evidence.
type Detector struct {
	cfg      DetectorConfig
	lastSeen []time.Duration
	failures []int
}

// NewDetector creates a detector; every node starts with liveness
// evidence at construction time, so a freshly booted node gets a full
// SuspectAfter grace period before anyone looks dead (no boot-time storm).
func NewDetector(cfg DetectorConfig, now time.Duration) *Detector {
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	d := &Detector{
		cfg:      cfg,
		lastSeen: make([]time.Duration, cfg.N),
		failures: make([]int, cfg.N),
	}
	for i := range d.lastSeen {
		d.lastSeen[i] = now
	}
	return d
}

// Seen records liveness evidence for node i at the given time (a
// heartbeat, any frame from its address, or a block it mined). Evidence
// timestamps are kept monotonic so replaying an old block cannot revive a
// node observed alive more recently than the block was mined.
func (d *Detector) Seen(i int, at time.Duration) {
	if i < 0 || i >= d.cfg.N {
		return
	}
	if at > d.lastSeen[i] {
		d.lastSeen[i] = at
	}
	d.failures[i] = 0
}

// LastSeen returns the newest evidence timestamp recorded for node i
// (zero for an out-of-range index). Probe-ack digests serialize these as
// ages so third-party evidence spreads without a global broadcast.
func (d *Detector) LastSeen(i int) time.Duration {
	if i < 0 || i >= d.cfg.N {
		return 0
	}
	return d.lastSeen[i]
}

// Fail records one failed send (or missing peer link) toward node i.
func (d *Detector) Fail(i int) {
	if i < 0 || i >= d.cfg.N {
		return
	}
	d.failures[i]++
}

// Status classifies node i at the given time. Send failures can only
// accelerate suspicion, never death: Dead strictly requires the full
// SuspectAfter+Hysteresis silence, so verdicts that trigger repair are
// always hysteresis-protected.
func (d *Detector) Status(i int, now time.Duration) Status {
	if i == d.cfg.Self {
		return Alive
	}
	if i < 0 || i >= d.cfg.N {
		return Dead
	}
	silence := now - d.lastSeen[i]
	if silence >= d.cfg.SuspectAfter+d.cfg.Hysteresis {
		return Dead
	}
	if silence >= d.cfg.SuspectAfter || d.failures[i] >= d.cfg.FailThreshold {
		return Suspect
	}
	return Alive
}

// CountDead returns how many roster nodes are currently dead.
func (d *Detector) CountDead(now time.Duration) int {
	n := 0
	for i := 0; i < d.cfg.N; i++ {
		if d.Status(i, now) == Dead {
			n++
		}
	}
	return n
}
