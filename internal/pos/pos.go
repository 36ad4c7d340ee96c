// Package pos implements the paper's Proof-of-Stake mining mechanism
// (Section V).
//
// Every node i derives a *hit* from the previous block's PoSHash and its
// own account address (eq. 7):
//
//	POSHash(t+1, i) = Hash[POSHash(t) ‖ Account_i]
//	h_i = POSHash(t+1, i) mod M
//
// and a *target* that grows each second (eq. 8):
//
//	R_i = S_i · Q_i · t · B
//
// where S_i is the node's token count, Q_i the number of data items it
// stores, t the seconds since the previous block and B the network-wide
// amendment (eq. 14) that pins the expected inter-block time to t0:
//
//	B = M / ((n+1) · t0 · Ū),   Ū = mean(S_i · Q_i)
//
// The node mines as soon as h_i ≤ R_i (eq. 9). Because h_i is fixed for
// the round and R_i is linear in t, the exact mining time is
// t_i = ceil(h_i / (S_i·Q_i·B)) — the simulation schedules one event
// instead of polling every second, with identical outcomes.
package pos

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"time"

	"repro/internal/block"
	"repro/internal/identity"
)

// DefaultM is the default hit modulus M: 2^40 keeps hits comfortably
// inside float64's exact-integer range while leaving headroom for large
// stakes.
const DefaultM = uint64(1) << 40

// DefaultT0 is the paper's expected block interval (60 s, Section VI).
const DefaultT0 = 60 * time.Second

// NeverMines is returned by TimeToMine when the node cannot mine this
// round (zero stake or zero target slope).
const NeverMines = math.MaxInt64

// Params are the network-wide PoS constants, agreed at genesis.
type Params struct {
	// M is the hit modulus of eq. (7).
	M uint64
	// T0 is the expected time between blocks of eq. (10).
	T0 time.Duration
}

// DefaultParams returns the paper's settings.
func DefaultParams() Params { return Params{M: DefaultM, T0: DefaultT0} }

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.M == 0 {
		return errors.New("pos: M must be positive")
	}
	if p.T0 <= 0 {
		return errors.New("pos: T0 must be positive")
	}
	return nil
}

// Hit computes h_i for the account mining on top of prev (eq. 7).
func (p Params) Hit(prev *block.Block, account identity.Address) uint64 {
	next := prev.NextPoSHash(account)
	n := new(big.Int).SetBytes(next[:])
	m := new(big.Int).SetUint64(p.M)
	return n.Mod(n, m).Uint64()
}

// AmendmentB computes B per eq. (14) for n nodes with average stake
// product ubar. It returns 0 if the network is degenerate (no nodes or
// zero stake), in which case mining stalls — callers should treat that as
// a configuration error.
func (p Params) AmendmentB(n int, ubar float64) float64 {
	if n <= 0 || ubar <= 0 {
		return 0
	}
	return float64(p.M) / (float64(n+1) * p.T0.Seconds() * ubar)
}

// Target computes R_i = U·t·B (eq. 8, with U = S·Q) after t whole
// seconds.
func Target(u float64, t uint64, b float64) float64 {
	return u * float64(t) * b
}

// TimeToMine returns the smallest whole number of seconds t ≥ 1 at which
// hit ≤ U·t·B holds (the moment the node wins the round), or NeverMines.
func TimeToMine(hit uint64, u float64, b float64) uint64 {
	slope := u * b
	if slope <= 0 {
		return NeverMines
	}
	if hit == 0 {
		return 1
	}
	t := math.Ceil(float64(hit) / slope)
	if t < 1 {
		return 1
	}
	if t >= float64(NeverMines) {
		return NeverMines
	}
	return uint64(t)
}

// Claim validation errors.
var (
	ErrBadB        = errors.New("pos: block's amendment B does not match the network state")
	ErrHitNotMet   = errors.New("pos: hit exceeds target at claimed time")
	ErrNotMinimal  = errors.New("pos: claimed mining time is later than the node's winning time")
	ErrBadElapsed  = errors.New("pos: timestamp earlier than claimed elapsed time")
	ErrUnknownNode = errors.New("pos: miner account not in ledger")
)

// ValidateClaim verifies that block b was legitimately mined on top of
// prev by its declared miner, using the stake ledger state as of prev:
// the amendment B matches eq. (14), the timestamp matches MinedAfter, the
// hit condition h ≤ R held at the claimed time, and the claimed time is
// the miner's true winning time (a miner cannot pad t to inflate its
// target). PoSHash chaining is checked by block.VerifyLink.
func (p Params) ValidateClaim(prev, b *block.Block, led *Ledger) error {
	idx, ok := led.IndexOf(b.Miner)
	if !ok {
		return ErrUnknownNode
	}
	wantB := p.AmendmentB(led.N(), led.UBar())
	if relDiff(b.B, wantB) > 1e-9 {
		return fmt.Errorf("%w: got %v, want %v", ErrBadB, b.B, wantB)
	}
	// The timestamp may trail the winning second by propagation/processing
	// delay, but can never precede it.
	elapsed := b.Timestamp - prev.Timestamp
	claimed := time.Duration(b.MinedAfter) * time.Second
	if elapsed < claimed {
		return fmt.Errorf("%w: elapsed %v, claimed %d s", ErrBadElapsed, elapsed, b.MinedAfter)
	}
	hit := p.Hit(prev, b.Miner)
	u := led.U(idx)
	if float64(hit) > Target(u, b.MinedAfter, b.B) {
		return fmt.Errorf("%w: hit %d > target %v", ErrHitNotMet, hit, Target(u, b.MinedAfter, b.B))
	}
	if want := TimeToMine(hit, u, b.B); b.MinedAfter > want {
		return fmt.Errorf("%w: claimed %d s, winning time %d s", ErrNotMinimal, b.MinedAfter, want)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}
