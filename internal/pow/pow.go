// Package pow implements the Proof-of-Work baseline used in the Fig. 6
// energy comparison: a miner searches for a nonce such that the block hash
// starts with a given number of zero bits (the paper uses "4 zeros at the
// beginning of the block hash", i.e. 4 hex digits = 16 bits, averaging
// 25 s per block on the test phone).
//
// The package counts every hash attempt so the energy model can convert
// work into battery drain.
package pow

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
)

// DefaultDifficultyBits corresponds to the paper's "4 zeros" hex prefix.
const DefaultDifficultyBits = 16

// MaxDifficultyBits bounds the search so a misconfigured difficulty cannot
// hang a simulation.
const MaxDifficultyBits = 40

// ErrExhausted is returned if the nonce budget runs out before a solution
// is found (practically impossible below MaxDifficultyBits).
var ErrExhausted = errors.New("pow: nonce space exhausted")

// Result reports a successful mining run.
type Result struct {
	// Nonce is the winning nonce.
	Nonce uint64
	// Hashes is the number of hash evaluations performed, including the
	// winning one. This drives the energy model.
	Hashes uint64
	// Digest is the winning hash.
	Digest [sha256.Size]byte
}

// LeadingZeroBits counts the zero bits at the front of the digest.
func LeadingZeroBits(digest []byte) int {
	bits := 0
	for _, b := range digest {
		if b == 0 {
			bits += 8
			continue
		}
		for mask := byte(0x80); mask != 0; mask >>= 1 {
			if b&mask != 0 {
				return bits
			}
			bits++
		}
	}
	return bits
}

// Mine searches for a nonce such that SHA-256(header ‖ nonce) has at least
// difficultyBits leading zero bits. The starting nonce comes from rng so
// repeated simulated miners do different work; the search is deterministic
// given the rng state.
func Mine(header []byte, difficultyBits int, rng *rand.Rand) (*Result, error) {
	if difficultyBits < 0 || difficultyBits > MaxDifficultyBits {
		return nil, errors.New("pow: difficulty out of range")
	}
	buf := make([]byte, len(header)+8)
	copy(buf, header)
	nonce := rng.Uint64()
	var hashes uint64
	for attempts := uint64(0); attempts < math.MaxUint64; attempts++ {
		binary.BigEndian.PutUint64(buf[len(header):], nonce)
		d := sha256.Sum256(buf)
		hashes++
		if LeadingZeroBits(d[:]) >= difficultyBits {
			return &Result{Nonce: nonce, Hashes: hashes, Digest: d}, nil
		}
		nonce++
	}
	return nil, ErrExhausted
}

// ExpectedHashes returns the mean number of hash evaluations needed at the
// given difficulty (2^bits).
func ExpectedHashes(difficultyBits int) float64 {
	return math.Exp2(float64(difficultyBits))
}

// Verify checks that the digest of header ‖ nonce meets the difficulty.
func Verify(header []byte, nonce uint64, difficultyBits int) bool {
	buf := make([]byte, len(header)+8)
	copy(buf, header)
	binary.BigEndian.PutUint64(buf[len(header):], nonce)
	d := sha256.Sum256(buf)
	return LeadingZeroBits(d[:]) >= difficultyBits
}
