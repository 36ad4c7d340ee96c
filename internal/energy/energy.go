// Package energy models the battery of an edge device during mining,
// reproducing the Fig. 6 smartphone experiment synthetically.
//
// Substitution note (see DESIGN.md): the paper measured a Samsung Galaxy
// S8 mining PoW and PoS with 25 s mean block time and reported ~4 blocks
// per 1% battery for PoW versus ~11 blocks per 1% for PoS. We model drain
// as
//
//	E(block) = P_base · t_block + E_hash · hashes
//
// and calibrate the two constants from the paper's own numbers:
//
//   - Galaxy S8 battery: 3000 mAh · 3.85 V ≈ 41.6 kJ, so 1% ≈ 416 J.
//   - PoS does ~1 hash/s, so hash energy is negligible and the baseline
//     power follows from 11 blocks (275 s) per 416 J: P_base ≈ 1.51 W.
//   - PoW burns 416 J per 4 blocks (100 s): 104 J/block, of which
//     P_base·25 ≈ 37.8 J is baseline, leaving ≈ 66 J for the expected
//     2^16 hashes: E_hash ≈ 1.0 mJ/hash (a realistic figure for JS
//     SHA-256 on a phone, matching the paper's react-native setup).
//
// Fig. 6 is therefore fitted to the paper's own answer. What a run
// (experiments.RunFig6) adds is the work priced: each PoW block is mined
// with pow.Mine, so its attempt count is the SHA-256 work the code did,
// and each PoS block is won in the eq. 7–9 lottery on a one-account
// ledger, so its round time is the winning second pos computed. Over
// seeds 1–10, PoW gives 3.8–4.3 and PoS 10.3–11.1 blocks per 1 %
// (EXPERIMENTS.md, Fig. 6).
package energy

import "errors"

// Calibrated constants (see package comment).
const (
	// GalaxyS8CapacityJoules is the full battery capacity.
	GalaxyS8CapacityJoules = 41600.0
	// BasePowerWatts is the phone's power draw while mining-idle (screen,
	// radio, runtime) — dominates PoS drain.
	BasePowerWatts = 1.512
	// HashEnergyJoules is the energy per SHA-256 evaluation — dominates
	// PoW drain.
	HashEnergyJoules = 1.01e-3
)

// Model holds the device energy constants.
type Model struct {
	CapacityJoules   float64
	BasePowerWatts   float64
	HashEnergyJoules float64
}

// GalaxyS8 returns the calibrated model for the paper's test device.
func GalaxyS8() Model {
	return Model{
		CapacityJoules:   GalaxyS8CapacityJoules,
		BasePowerWatts:   BasePowerWatts,
		HashEnergyJoules: HashEnergyJoules,
	}
}

// Validate checks the model constants.
func (m Model) Validate() error {
	if m.CapacityJoules <= 0 || m.BasePowerWatts < 0 || m.HashEnergyJoules < 0 {
		return errors.New("energy: non-positive capacity or negative power constants")
	}
	return nil
}

// BlockEnergy returns the joules consumed mining one block that took
// seconds of wall time and hashes hash evaluations.
func (m Model) BlockEnergy(seconds float64, hashes uint64) float64 {
	return m.BasePowerWatts*seconds + m.HashEnergyJoules*float64(hashes)
}

// PercentLeft returns the charge left after used joules, as 0-100.
func (m Model) PercentLeft(used float64) float64 {
	return 100 * max(m.CapacityJoules-used, 0) / m.CapacityJoules
}
