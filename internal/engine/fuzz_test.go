package engine

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/chain"
	"repro/internal/identity"
	"repro/internal/pos"
)

// fuzzDonor mines one valid 6-block chain for the fuzz targets to mutate.
func fuzzDonor(f *testing.F) *testCluster {
	donor := newTestCluster(f, 3, nil)
	it := donor.item(0, "fuzz payload")
	for _, e := range donor.engines {
		e.AddMetadata(it)
	}
	for r := 0; r < 6; r++ {
		donor.mineNext(f)
	}
	return donor
}

// mutateChain applies the byte script data to a copy of base, two bytes per
// step: truncate, duplicate a height, swap neighbours, tamper a field with or
// without resealing, or extend with a fabricated block. It reports whether
// anything changed.
func mutateChain(data []byte, base []*block.Block, accounts []identity.Address) ([]*block.Block, bool) {
	blocks := append([]*block.Block(nil), base...)
	mutated := false
	for i := 0; i+1 < len(data) && len(blocks) > 0; i += 2 {
		op, arg := int(data[i])%6, int(data[i+1])
		switch op {
		case 0: // truncate
			k := 1 + arg%len(blocks)
			if k < len(blocks) {
				blocks, mutated = blocks[:k], true
			}
		case 1: // duplicate the block at one height
			k := arg % len(blocks)
			out := make([]*block.Block, 0, len(blocks)+1)
			out = append(out, blocks[:k+1]...)
			out = append(out, blocks[k])
			out = append(out, blocks[k+1:]...)
			blocks, mutated = out, true
		case 2: // swap two adjacent blocks
			if len(blocks) >= 2 {
				k := arg % (len(blocks) - 1)
				blocks[k], blocks[k+1] = blocks[k+1], blocks[k]
				mutated = true
			}
		case 3: // tamper a field without resealing (stale hash)
			k := arg % len(blocks)
			cp := blocks[k].Clone()
			switch arg % 4 {
			case 0:
				cp.MinedAfter++
			case 1:
				cp.B++
			case 2:
				cp.Timestamp += time.Second
			case 3:
				cp.PrevHash[0] ^= 0xff
			}
			blocks[k] = cp
			mutated = true
		case 4: // tamper and reseal: valid hash, forged PoS claim
			k := arg % len(blocks)
			cp := blocks[k].Clone()
			cp.MinedAfter += uint64(arg%5) + 1
			cp.Seal()
			blocks[k] = cp
			mutated = true
		case 5: // extend with a fabricated block claiming a bogus round
			prev := blocks[len(blocks)-1]
			nb := block.NewBuilder(prev, accounts[arg%len(accounts)],
				prev.Timestamp+time.Second, uint64(arg%100)+1, float64(arg)).Seal()
			blocks = append(blocks, nb)
			mutated = true
		}
	}
	return blocks, mutated
}

// FuzzAdoptSuffix feeds AdoptSuffix mutated fork candidates — truncated,
// reordered, duplicated-height and claim-forged chains, cut at any height —
// against a victim that shares the donor's first two blocks and then mined
// one of its own, with a snapshot at the fork point. It asserts the safety
// properties: the engine never panics; it never adopts a chain that does not
// replay cleanly (structural validity plus PoS claim validity); a refusal
// fires no callback and moves nothing; an adoption reports the victim's
// blocks above the fork point disconnected, then one event per connected
// block. The victim's own chain must stay fully valid after every
// attempt, adopted or refused.
func FuzzAdoptSuffix(f *testing.F) {
	f.Add([]byte{}, uint8(3))           // unmutated, cut at the fork: must adopt
	f.Add([]byte{0, 3}, uint8(0))       // truncate
	f.Add([]byte{1, 2, 2, 0}, uint8(1)) // duplicate a height, swap adjacent
	f.Add([]byte{3, 1, 3, 9}, uint8(2)) // stale-hash field tampering
	f.Add([]byte{4, 2, 4, 5}, uint8(0)) // resealed forged claims
	f.Add([]byte{5, 7, 5, 1}, uint8(3)) // forged-claim extensions
	f.Add([]byte{2, 0, 1, 6, 0, 255, 5, 42}, uint8(9))

	// One valid 6-block donor chain, shared (read-only) by all inputs.
	donor := fuzzDonor(f)
	base := donor.engines[0].Chain().Blocks()
	accounts := donor.accounts

	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		var disconnected []*block.Block
		vc := newTestCluster(t, 3, func(i int, cfg *Config) {
			cfg.SnapshotInterval = 2
			cfg.OnDisconnect = func(bs []*block.Block) { disconnected = append(disconnected, bs...) }
		})
		victim := vc.engines[0]
		vc.now = base[2].Timestamp
		for _, b := range base[1:3] {
			if _, err := victim.ReceiveBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		own := vc.mineAmong(t, []int{0})
		vc.now = donor.now // the donor's blocks are not from the future
		before, eventsBefore := victim.Chain().Blocks(), len(vc.events[0])

		blocks, mutated := mutateChain(data, base, accounts)

		// Hand over the candidate from any height on, genesis included.
		suffix := blocks[int(cut)%len(blocks):]
		stats, adopted := victim.AdoptSuffix(suffix)

		if !mutated && !adopted && suffix[0].Index >= 1 && suffix[0].Index <= 3 {
			t.Fatal("unmutated valid suffix refused")
		}
		if !adopted && (victim.Tip() != own || len(disconnected) != 0 || len(vc.events[0]) != eventsBefore) {
			t.Fatal("refused suffix moved the tip or fired a callback")
		}
		if adopted {
			snap := victim.Chain().Blocks()
			if got := snap[stats.ForkPoint+1:]; len(got) != len(suffix) {
				t.Fatalf("adopted %d blocks of a %d-block suffix", len(got), len(suffix))
			}
			for i, b := range suffix {
				if snap[int(stats.ForkPoint)+1+i] != b {
					t.Fatalf("adopted chain differs from the suffix at offset %d", i)
				}
			}
			if got := vc.events[0][eventsBefore:]; len(got) != len(suffix) || got[0].Block != suffix[0] {
				t.Fatalf("%d append events for a %d-block suffix", len(got), len(suffix))
			}
			if !slices.Equal(disconnected, before[stats.ForkPoint+1:]) {
				t.Fatalf("disconnected %d blocks, want the victim's %d above the fork point", len(disconnected), len(before[stats.ForkPoint+1:]))
			}
		}
		// Whatever happened, the victim's chain must replay cleanly.
		snap := victim.Chain().Blocks()
		if err := chain.Validate(snap); err != nil {
			t.Fatalf("victim chain structurally invalid: %v", err)
		}
		scratch := pos.NewLedger(accounts)
		for i := 1; i < len(snap); i++ {
			if err := victim.cfg.PoS.ValidateClaim(snap[i-1], snap[i], scratch); err != nil {
				t.Fatalf("victim chain claim-invalid at height %d: %v", i, err)
			}
			if err := scratch.ApplyBlock(snap[i]); err != nil {
				t.Fatalf("victim ledger replay at height %d: %v", i, err)
			}
		}
		// And the live ledger must match that replay exactly.
		for k := range accounts {
			if victim.Ledger().S(k) != scratch.S(k) || victim.Ledger().Q(k) != scratch.Q(k) {
				t.Fatalf("victim ledger drifts from chain at account %d", k)
			}
		}
	})
}

// FuzzAdoptChain is the differential form of the above: the same mutated
// candidates go whole to the reference oracle (AdoptChain, the retired
// scratch replay) on one fresh replica and, past the common prefix, to
// AdoptSuffix on its twin. Whatever the bytes, the two must make the same
// decision and stand on the same chain, ledger, view, indexes and pool.
func FuzzAdoptChain(f *testing.F) {
	f.Add([]byte{})           // unmutated candidate: both adopt
	f.Add([]byte{0, 3})       // truncate
	f.Add([]byte{1, 2, 2, 0}) // duplicate a height, swap adjacent
	f.Add([]byte{3, 1, 3, 9}) // stale-hash field tampering
	f.Add([]byte{4, 2, 4, 5}) // resealed forged claims
	f.Add([]byte{5, 7, 5, 1}) // forged-claim extensions
	f.Add([]byte{2, 0, 1, 6, 0, 255, 5, 42})

	donor := fuzzDonor(f)
	base := donor.engines[0].Chain().Blocks()

	f.Fuzz(func(t *testing.T, data []byte) {
		c := newTestCluster(t, 3, nil)
		c.now = donor.now
		reference, victim := c.engines[0], c.engines[1]
		blocks, _ := mutateChain(data, base, donor.accounts)

		want := reference.AdoptChain(blocks)
		// Two fresh replicas share genesis and nothing else: a candidate that
		// starts with it hands over the rest, any other (a forged or displaced
		// first block) has no common prefix and nothing to hand over.
		var suffix []*block.Block
		if blocks[0].Hash == base[0].Hash && blocks[0].VerifySelf() == nil {
			suffix = blocks[1:]
		}
		if _, got := victim.AdoptSuffix(suffix); got != want {
			t.Fatalf("AdoptSuffix adopted: %v, the scratch-replay oracle: %v", got, want)
		}
		assertEngineStateEqual(t, victim, reference)
	})
}

// FuzzSnapshotDecode throws arbitrary bytes at DecodeSnapshot and installs
// whatever it accepts into a fresh engine. Nothing may panic; a decoded
// blob re-encodes to its own bytes; and a snapshot BootstrapFromSnapshot
// installs exports back to those bytes, so the item table, its assignments,
// counts and pending expiries survive the round trip whole. The seed is an
// honest snapshot taken after a block expired an item, holding pending
// expiries and a re-announcement.
func FuzzSnapshotDecode(f *testing.F) {
	c, obs, _, _, _, _, _ := expiryScenario(f)
	snap, ok := obs.ExportSnapshot()
	if !ok {
		f.Fatal("no exportable snapshot")
	}
	blob := snap.Encode()
	f.Add(blob)
	f.Add(blob[:len(blob)/2])

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if !bytes.Equal(s.Encode(), data) {
			t.Fatal("a decoded snapshot re-encodes to other bytes")
		}
		e := freshObserver(t, c)
		if e.BootstrapFromSnapshot(s) != nil {
			return
		}
		back, ok := e.ExportSnapshot()
		if !ok {
			t.Fatal("an installed snapshot is not exportable")
		}
		if !bytes.Equal(back.Encode(), data) {
			t.Fatal("an installed snapshot exports other bytes")
		}
	})
}
