package meta

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// sigCacheGen is how many entries one generation of a SigCache holds. Two
// generations are live at most, so a cache never holds more than
// 2*sigCacheGen keys (about 3 MB of map at 32-byte keys).
const sigCacheGen = 1 << 15

// SigCache remembers which producer signatures one node has already
// verified, so that an item reaching the node again — relayed, then packed
// in a block, then in a fork suffix or a full replay — costs one hash
// instead of one ed25519 verification (DESIGN.md "Verify once").
//
// A key is SHA-256 over the length-prefixed signing bytes followed by the
// signature: every byte identity.Verify reads, the producer address and
// public key included, so a hit means exactly these bytes verified before.
// Keys are added only after a successful verification. Each node owns its
// cache; it must never be shared between nodes.
//
// Eviction is by generation: inserts fill cur, and when cur holds
// sigCacheGen keys it becomes old and the previous old is dropped. An entry
// therefore survives at least sigCacheGen later inserts. The zero value is
// an empty cache and allocates nothing until the first insert. Safe for
// concurrent use.
type SigCache struct {
	mu           sync.Mutex
	cur, old     map[[sha256.Size]byte]struct{}
	hits, misses uint64
}

// lookup reports whether key was verified before, counting the outcome.
func (c *SigCache) lookup(key [sha256.Size]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.cur[key]
	if !ok {
		_, ok = c.old[key]
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return ok
}

// add records a key whose bytes have just verified.
func (c *SigCache) add(key [sha256.Size]byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cur) >= sigCacheGen {
		c.old, c.cur = c.cur, nil
	}
	if c.cur == nil {
		c.cur = make(map[[sha256.Size]byte]struct{})
	}
	c.cur[key] = struct{}{}
}

// Stats returns how many lookups hit and missed so far.
func (c *SigCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// VerifyCached is Verify through a node's cache: the same verdict, with
// the address-hash and ed25519 steps skipped when exactly these signing
// bytes and signature verified on this node before. A nil cache is Verify.
func (it *Item) VerifyCached(c *SigCache) error {
	if c == nil {
		return it.Verify()
	}
	if len(it.Signature) == 0 {
		return ErrUnsigned
	}
	n := it.signingSize()
	buf := make([]byte, 4, 4+n+len(it.Signature))
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf = it.AppendSigningBytes(buf)
	buf = append(buf, it.Signature...)
	key := sha256.Sum256(buf)
	if c.lookup(key) {
		return nil
	}
	if err := it.verifyBytes(buf[4 : 4+n]); err != nil {
		return err
	}
	c.add(key)
	return nil
}
