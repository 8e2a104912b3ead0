//go:build !race

// The race detector drops sync.Pool entries at random, so a released memo
// would not reliably come back; these gates run only in normal builds.

package fitness

import (
	"runtime"
	"slices"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// memoTable returns n random strategies of the given memory depth and the
// complete graph over them.
func memoTable(t *testing.T, n, mem int, seed uint64) ([]strategy.Strategy, topology.Graph) {
	t.Helper()
	g, err := (topology.Spec{}).Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = strategy.RandomPure(mem, src)
	}
	return table, g
}

// TestAbundanceSteadyStateAllocations pins the abundance path's Fitness
// and Adopt to zero allocations once the memo and the store are warm.
func TestAbundanceSteadyStateAllocations(t *testing.T) {
	for _, mem := range []int{2, 6} {
		eng := memoEngine(t, mem)
		table, g := memoTable(t, 64, mem, 5)
		ev, err := NewEvaluator(eng, g, table, 0, len(table), EvalCached, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ev.memo == nil {
			t.Fatal("no memo on the abundance path")
		}
		for i := range table {
			if _, err := ev.Fitness(i); err != nil {
				t.Fatal(err)
			}
		}
		step := func() {
			// SSet 1 moves between 0's and 2's strategies.  SSet 3, the only
			// holder of its strategy, re-adopts it: its position is vacated
			// and appended again, so its memo row and column start unknown.
			for _, lt := range [][2]int{{1, 0}, {1, 2}, {3, 3}} {
				if err := ev.Adopt(lt[0], lt[1]); err != nil {
					t.Fatal(err)
				}
				for _, i := range lt {
					if _, err := ev.Fitness(i); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("memory %d: %v allocations per three adoptions and their fitness, want 0", mem, allocs)
		}
		ev.Release()
	}
}

// TestSharedStoreReplicatesReuseMemo: a replicate over a shared store
// that starts after another has released its evaluator takes over that
// evaluator's memo, all unknown, so an ensemble makes one memo per
// replicate in flight rather than one per replicate.
func TestSharedStoreReplicatesReuseMemo(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one P, whose pool slot the release fills
	eng := memoEngine(t, 6)
	shared, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	table, g := memoTable(t, 32, 6, 9)
	replicate := func() (*payMemo, []float64, *PairCache) {
		ev, err := NewEvaluator(eng, g, table, 0, len(table), EvalCached, shared.ForRun(1, true))
		if err != nil {
			t.Fatal(err)
		}
		defer ev.Release()
		m := ev.memo
		if slices.Contains(m.known, true) {
			t.Fatal("a new evaluator's memo knows entries")
		}
		fit := make([]float64, len(table))
		for i := range table {
			if fit[i], err = ev.Fitness(i); err != nil {
				t.Fatal(err)
			}
		}
		return m, fit, ev.Cache()
	}
	first, want, _ := replicate()
	second, got, view := replicate()
	if second != first {
		t.Fatal("the second replicate made a memo of its own instead of reusing the released one")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("second replicate's fitness %v, first's %v", got, want)
	}
	n := int64(len(table))
	if view.Misses() != 0 || view.Hits() != n*(n-1) {
		t.Fatalf("second replicate: %d hits, %d misses; want %d store hits and no miss", view.Hits(), view.Misses(), n*(n-1))
	}
}
