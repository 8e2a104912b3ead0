//go:build !race

// The race detector drops sync.Pool entries at random, so the engine's
// pooled batch buffers would show up as allocations; the gate runs only in
// normal builds.

package sset

import (
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestFitnessNoisyAllocations pins the distributed engine's noisy path to
// one allocation per Fitness call — the per-game source array — where one
// heap Source per game used to be split.
func TestFitnessNoisyAllocations(t *testing.T) {
	eng := newKernelEngine(t, 0.05, game.KernelAuto)
	src := rng.New(3)
	opponents := make([]strategy.Strategy, 511)
	for i := range opponents {
		opponents[i] = strategy.RandomPure(1, src)
	}
	s, _ := New(0, 4, strategy.WSLS(1))
	opts := FitnessOptions{Workers: 1, Source: rng.New(9)}
	if _, err := s.Fitness(eng, opponents, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.Fitness(eng, opponents, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("noisy Fitness over %d opponents: %v allocations per call, want at most 1", len(opponents), allocs)
	}
}
