package fitness

import (
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestPlayIDBatchMatchesPlayID checks that the batched miss-fill path is
// observably identical to serial PlayID calls: same results, same
// hit/miss accounting, mirrors stored.
func TestPlayIDBatchMatchesPlayID(t *testing.T) {
	eng := newEngine(t, 0)
	batched, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}

	src := rng.New(99)
	const n = 150 // spans multiple 64-lane chunks, with duplicates below
	ids := make([]uint32, 0, n)
	serialIDs := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		s := strategy.RandomPure(1, src)
		id, err := batched.Interner().Intern(s)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		sid, err := serial.Interner().Intern(s)
		if err != nil {
			t.Fatal(err)
		}
		serialIDs = append(serialIDs, sid)
	}
	// Duplicate some opponents so the dedup path is exercised.
	ids = append(ids, ids[3], ids[3], ids[70])
	serialIDs = append(serialIDs, serialIDs[3], serialIDs[3], serialIDs[70])

	self := ids[0]
	out := make([]game.Result, len(ids))
	if err := batched.PlayIDBatch(self, ids, out); err != nil {
		t.Fatal(err)
	}
	for i, id := range serialIDs {
		want, err := serial.PlayID(serialIDs[0], id)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("opponent %d: batch %+v, serial %+v", i, out[i], want)
		}
	}
	if batched.Misses() != serial.Misses() {
		t.Fatalf("miss counts diverged: batch %d, serial %d", batched.Misses(), serial.Misses())
	}
	if batched.storedPairs() != serial.storedPairs() {
		t.Fatalf("stored pair counts diverged: batch %d, serial %d", batched.storedPairs(), serial.storedPairs())
	}

	// A second pass is all hits and must not allocate.
	hitsBefore := batched.Hits()
	allocs := testing.AllocsPerRun(50, func() {
		if err := batched.PlayIDBatch(self, ids, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("all-hit PlayIDBatch allocates %v times per call, want 0", allocs)
	}
	if batched.Hits() == hitsBefore {
		t.Fatal("second pass recorded no hits")
	}
	if err := batched.PlayIDBatch(self, ids, out[:1]); err == nil {
		t.Fatal("mismatched result slice length accepted")
	}
	if err := batched.PlayIDBatch(self, []uint32{9999}, out[:1]); err == nil {
		t.Fatal("unknown interned ID accepted")
	}
}
