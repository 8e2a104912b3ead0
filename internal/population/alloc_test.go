//go:build !race

// The race detector drops sync.Pool entries at random, so the engine's
// pooled batch buffers would show up as allocations; the gate runs only in
// normal builds.

package population

import "testing"

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
