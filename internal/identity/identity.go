// Package identity provides node key pairs and blockchain accounts.
//
// Per Section III-A, each node owns a private/public key pair used for
// identification; the account address is a hash derived from the public key
// ("the account address can be generated from public keys but not in
// reverse"). Signatures over metadata items let any node validate data
// integrity (Section III-B2).
package identity

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// AddressSize is the length of an account address in bytes (SHA-256).
const AddressSize = sha256.Size

// Address is a node's account address: SHA-256 of its public key.
type Address [AddressSize]byte

// String returns the hex form of the address.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// Short returns an abbreviated hex prefix for logs.
func (a Address) Short() string { return hex.EncodeToString(a[:4]) }

// IsZero reports whether the address is all zeros (no account).
func (a Address) IsZero() bool { return a == Address{} }

// ParseAddress decodes a full-length hex address.
func ParseAddress(s string) (Address, error) {
	var a Address
	b, err := hex.DecodeString(s)
	if err != nil {
		return a, fmt.Errorf("identity: parse address: %w", err)
	}
	if len(b) != AddressSize {
		return a, fmt.Errorf("identity: address must be %d bytes, got %d", AddressSize, len(b))
	}
	copy(a[:], b)
	return a, nil
}

// AddressOf derives the account address from a public key.
func AddressOf(pub ed25519.PublicKey) Address {
	return Address(sha256.Sum256(pub))
}

// Identity is a node's key pair plus derived account address.
type Identity struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	addr Address
}

// ErrBadSignature is returned when signature verification fails.
var ErrBadSignature = errors.New("identity: bad signature")

// Generate creates a fresh identity from the given entropy source. Pass a
// seeded deterministic reader in simulations for reproducibility.
func Generate(entropy io.Reader) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(entropy)
	if err != nil {
		return nil, fmt.Errorf("identity: generate key: %w", err)
	}
	return &Identity{pub: pub, priv: priv, addr: AddressOf(pub)}, nil
}

// GenerateSeeded creates a deterministic identity from a math/rand source.
// Only for simulations and tests; real deployments must use crypto/rand.
func GenerateSeeded(rng *rand.Rand) *Identity {
	seed := make([]byte, ed25519.SeedSize)
	for i := range seed {
		seed[i] = byte(rng.Intn(256))
	}
	priv := ed25519.NewKeyFromSeed(seed)
	pub := priv.Public().(ed25519.PublicKey)
	return &Identity{pub: pub, priv: priv, addr: AddressOf(pub)}
}

// Address returns the account address.
func (id *Identity) Address() Address { return id.addr }

// PublicKey returns the public key (shared in blocks so peers can verify
// producer signatures).
func (id *Identity) PublicKey() ed25519.PublicKey { return id.pub }

// Sign signs msg with the node's private key.
func (id *Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.priv, msg)
}

// Verify checks sig over msg against pub. It also confirms that pub hashes
// to the claimed address, binding the signature to the account.
func Verify(pub ed25519.PublicKey, addr Address, msg, sig []byte) error {
	if len(pub) != ed25519.PublicKeySize {
		return fmt.Errorf("identity: public key must be %d bytes, got %d", ed25519.PublicKeySize, len(pub))
	}
	if AddressOf(pub) != addr {
		return errAddressMismatch(addr)
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

func errAddressMismatch(addr Address) error {
	return fmt.Errorf("identity: public key does not match address %s", addr.Short())
}
