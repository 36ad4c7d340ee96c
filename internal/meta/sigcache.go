package meta

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/identity"
)

// sigCacheGen is how many entries one generation of a SigCache holds. Two
// generations are live at most, so a cache never holds more than
// 2*sigCacheGen keys (about 3 MB of map at 32-byte keys).
const sigCacheGen = 1 << 15

// keyCacheGen is how many producer keys one generation of a SigCache's key
// table holds. Two generations are live at most, so a node holds at most
// 2*keyCacheGen identity.VerifyKeys (about 520 KB).
const keyCacheGen = 64

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
// A miss is verified through the same node's key table (DESIGN.md "Verify
// fast"): a producer key that verified once on this node is remembered, and
// the second miss under it builds the key's identity.VerifyKey, which
// answers every later miss under that key at about two fifths of the cost
// of identity.Verify. A first-seen key goes to identity.VerifyFirst, at
// about four fifths.
//
// Eviction is by generation: inserts fill cur, and when cur holds
// sigCacheGen keys it becomes old and the previous old is dropped. An entry
// therefore survives at least sigCacheGen later inserts. The key table does
// the same with keyCacheGen keys, and a key found in the old generation
// moves to the current one. The zero value is an empty cache and allocates
// nothing until the first insert. Safe for concurrent use.
type SigCache struct {
	mu           sync.Mutex
	cur, old     map[[sha256.Size]byte]struct{}
	hits, misses uint64
	// keys and oldKeys map a producer key that verified on this node to its
	// tables, nil until the second miss under it.
	keys, oldKeys map[[ed25519.PublicKeySize]byte]*identity.VerifyKey
	tabled        uint64
	firsts        uint64 // misses verified without tables
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

// Tables returns how many producer-key tables this cache has built so far
// and how many it holds now.
func (c *SigCache) Tables() (built uint64, held int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gen := range [...]map[[ed25519.PublicKeySize]byte]*identity.VerifyKey{c.keys, c.oldKeys} {
		for _, vk := range gen {
			if vk != nil {
				held++
			}
		}
	}
	return c.tabled, held
}

// FirstChecks returns how many misses so far were verified without a
// producer key's tables, by identity.VerifyFirst; the other misses were
// answered by tables.
func (c *SigCache) FirstChecks() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.firsts
}

// verifyKey reports whether pub verified on this node before, and its
// tables if they were built.
func (c *SigCache) verifyKey(pub [ed25519.PublicKeySize]byte) (vk *identity.VerifyKey, seen bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if vk, seen = c.keys[pub]; !seen {
		if vk, seen = c.oldKeys[pub]; seen {
			delete(c.oldKeys, pub)
			c.putKeyLocked(pub, vk)
		}
	}
	return vk, seen
}

// putKey records that pub verified, with its tables if vk is non-nil. It
// never replaces tables with nil: a goroutine that verified under the key
// cold may finish after another one built them.
func (c *SigCache) putKey(pub [ed25519.PublicKeySize]byte, vk *identity.VerifyKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if vk != nil {
		c.tabled++
	} else if c.keys[pub] != nil {
		return
	}
	c.putKeyLocked(pub, vk)
}

func (c *SigCache) putKeyLocked(pub [ed25519.PublicKeySize]byte, vk *identity.VerifyKey) {
	if _, ok := c.keys[pub]; !ok && len(c.keys) >= keyCacheGen {
		c.oldKeys, c.keys = c.keys, nil
	}
	if c.keys == nil {
		c.keys = make(map[[ed25519.PublicKeySize]byte]*identity.VerifyKey)
	}
	c.keys[pub] = vk
}

// verifyMiss is Verify on the signing bytes msg, for an item whose
// signature this cache has not seen: through the producer key's tables
// from the key's second miss on, through identity.VerifyFirst before that.
func (c *SigCache) verifyMiss(it *Item, msg []byte) error {
	var pub [ed25519.PublicKeySize]byte
	var vk *identity.VerifyKey
	seen := false
	if len(it.ProducerPub) == ed25519.PublicKeySize {
		pub = [ed25519.PublicKeySize]byte(it.ProducerPub)
		if vk, seen = c.verifyKey(pub); seen && vk == nil {
			if vk, _ = identity.NewVerifyKey(it.ProducerPub); vk != nil {
				c.putKey(pub, vk)
			}
		}
	}
	var err error
	if vk != nil {
		err = vk.Verify(it.Producer, msg, it.Signature)
	} else {
		c.mu.Lock()
		c.firsts++
		c.mu.Unlock()
		// Success implies a 32-byte key.
		if err = identity.VerifyFirst(it.ProducerPub, it.Producer, msg, it.Signature); err == nil && !seen {
			c.putKey(pub, nil)
		}
	}
	if err != nil {
		return fmt.Errorf("meta: item %s: %w", it.ID.Short(), err)
	}
	return nil
}

// VerifyCached is Verify through a node's cache: the same verdict and
// error, with the address-hash and ed25519 steps skipped when exactly these
// signing bytes and signature verified on this node before, and the
// ed25519 step on the producer key's tables when the key has verified here
// before. A nil cache is Verify.
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
	if err := c.verifyMiss(it, buf[4:4+n]); err != nil {
		return err
	}
	c.add(key)
	return nil
}
