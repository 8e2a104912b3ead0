//go:build !race

// The race detector drops sync.Pool entries at random, so the engine's
// pooled batch buffers would show up as allocations; the gate runs only in
// normal builds.

package population

import (
	"testing"

	"evogame/internal/fitness"
)

// TestFitnessPairNoisyAllocations pins the noisy EvalFull path — the
// paper's Figure 2 setting — to zero allocations per pairwise-comparison
// event once the model's pair rows and buffers are warm.
func TestFitnessPairNoisyAllocations(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 128
	cfg.Rounds = 200
	cfg.Noise = 0.05
	m := mustModel(t, cfg)
	if _, _, err := m.fitnessPair(3, 90); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := m.fitnessPair(3, 90); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("noisy fitnessPair: %v allocations per event, want 0", allocs)
	}
}

// TestAdoptAllocations pins a serial adoption in the cached modes to zero
// allocations: the table copies the teacher's ID and strategy value, and
// the evaluator's counts and rows move in place.
func TestAdoptAllocations(t *testing.T) {
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		cfg := baseConfig()
		cfg.NumSSets = 64
		cfg.MemorySteps = 6
		cfg.EvalMode = mode
		m := mustModel(t, cfg)
		for i := 0; i < cfg.NumSSets; i++ {
			if _, err := m.ev.Fitness(i); err != nil {
				t.Fatal(err)
			}
		}
		adopt := func() {
			// SSet 1 moves between 0's and 2's strategies.  SSet 3, the only
			// holder of its strategy, re-adopts it: its ID leaves the present
			// list and is appended again, moving every row's columns.
			for _, lt := range [][2]int{{1, 0}, {1, 2}, {3, 3}} {
				if err := m.adopt(lt[0], lt[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
		adopt()
		if allocs := testing.AllocsPerRun(50, adopt); allocs != 0 {
			t.Fatalf("%v: %v allocations per three adoptions, want 0", mode, allocs)
		}
	}
}
