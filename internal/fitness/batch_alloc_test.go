//go:build !race

// The race detector drops sync.Pool entries at random, so the engine's
// pooled batch buffers would show up as allocations; the gate runs only in
// normal builds.

package fitness

import (
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestPlayIDBatchMissAllocations pins a 64-opponent PlayIDBatch whose every
// pair is a miss to zero allocations: the miss bookkeeping lives in
// fixed-size arrays.  The shard tables are pre-sized so that no table is
// rebuilt during the measurement.
func TestPlayIDBatchMissAllocations(t *testing.T) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: 64, MemorySteps: 6})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cache.store.shards {
		cache.store.shards[i].table.Store(newPairTable(1024))
	}
	const runs = 20
	src := rng.New(8)
	intern := func() uint32 {
		id, err := cache.Interner().Intern(strategy.RandomPure(6, src))
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	bs := make([]uint32, game.BatchLanes)
	for k := range bs {
		bs[k] = intern()
	}
	// AllocsPerRun makes one warm-up call before the measured ones; every
	// call plays a fresh focal strategy against the same opponents.
	focal := make([]uint32, runs+1)
	for i := range focal {
		focal[i] = intern()
	}
	out := make([]game.Result, len(bs))
	call := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := cache.PlayIDBatch(focal[call], bs, out); err != nil {
			t.Fatal(err)
		}
		call++
	})
	if want := int64((runs + 1) * len(bs)); cache.Misses() != want || cache.Hits() != 0 {
		t.Fatalf("misses=%d hits=%d, want %d misses and no hits", cache.Misses(), cache.Hits(), want)
	}
	if allocs != 0 {
		t.Fatalf("PlayIDBatch over %d missing pairs: %v allocations per call, want 0", len(bs), allocs)
	}
}

// TestPlayAllNoisyAllocations pins the distributed engine's noisy path to
// one allocation per PlayAll call — the per-game source array — where one
// heap Source per game used to be split.
func TestPlayAllNoisyAllocations(t *testing.T) {
	eng := newKernelEngine(t, 0.05, game.KernelAuto)
	src := rng.New(3)
	opponents := make([]strategy.Strategy, 511)
	for i := range opponents {
		opponents[i] = strategy.RandomPure(1, src)
	}
	focal, caller := strategy.WSLS(1), rng.New(9)
	if _, err := PlayAll(eng, focal, opponents, 1, caller); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := PlayAll(eng, focal, opponents, 1, caller); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("noisy PlayAll over %d opponents: %v allocations per call, want at most 1", len(opponents), allocs)
	}
}
