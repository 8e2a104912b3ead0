//go:build !race

// The race detector adds allocations of its own, so the gate runs only in
// normal builds.

package intern

import (
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestInternHitAllocations pins re-interning a known memory-six strategy
// to no allocation: the registry hashes the move words in place and never
// builds an encoding.
func TestInternHitAllocations(t *testing.T) {
	r := NewRegistry()
	s := strategy.RandomPure(6, rng.New(4))
	want, err := r.Intern(s)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if id, err := r.Intern(s); err != nil || id != want {
			t.Fatalf("re-intern = %d, %v; want %d", id, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("re-interning a known memory-six strategy: %v allocations, want 0", allocs)
	}
}
