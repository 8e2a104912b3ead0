package population_test

import (
	"context"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/parallel"
	"evogame/internal/population"
)

// allPairsScenario is a noiseless memory-one scenario shared by the serial
// engine and the all-pairs reference.
type allPairsScenario struct {
	ssets, generations int
	mutation           float64
	seed               uint64
}

// serialRun runs the serial engine under one evaluation mode.
func (sc allPairsScenario) serialRun(t *testing.T, mode fitness.EvalMode) population.Result {
	t.Helper()
	m, err := population.New(population.Config{
		NumSSets:      sc.ssets,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,
		MutationRate:  sc.mutation,
		Beta:          1,
		Seed:          sc.seed,
		EvalMode:      mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(context.Background(), sc.generations)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// allPairsRun runs the same scenario on the distributed engine's EvalFull
// path, which plays every neighbour pair through fitness.PlayAll: the exact
// all-pairs reference.  Without noise it follows the serial trajectory.
func (sc allPairsScenario) allPairsRun(t *testing.T) parallel.Result {
	t.Helper()
	res, err := parallel.Run(parallel.Config{
		Ranks:         3,
		NumSSets:      sc.ssets,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,
		MutationRate:  sc.mutation,
		Beta:          1,
		Generations:   sc.generations,
		Seed:          sc.seed,
		EvalMode:      fitness.EvalFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesAllPairs checks a serial run against the all-pairs reference:
// the same evolutionary events and the same final table.
func assertMatchesAllPairs(t *testing.T, label string, want parallel.Result, got population.Result) {
	t.Helper()
	if want.NatureStats != got.NatureStats {
		t.Fatalf("%s: nature stats differ from the all-pairs replay: %+v vs %+v", label, got.NatureStats, want.NatureStats)
	}
	if len(want.FinalStrategies) != len(got.FinalStrategies) {
		t.Fatalf("%s: table sizes differ", label)
	}
	for i := range want.FinalStrategies {
		if !want.FinalStrategies[i].Equal(got.FinalStrategies[i]) {
			t.Fatalf("%s: final table differs from the all-pairs replay at SSet %d", label, i)
		}
	}
}

func TestFitnessModesAgreeOnDynamics(t *testing.T) {
	// With no noise the default cached-distinct evaluation must produce
	// exactly the same fitness values, hence the same adoption decisions and
	// the same final table, as the exact all-pairs evaluation.
	sc := allPairsScenario{ssets: 10, generations: 120, mutation: 0.3, seed: 7}
	assertMatchesAllPairs(t, "default", sc.allPairsRun(t), sc.serialRun(t, fitness.EvalFull))
}

func TestEvalModesIdenticalAgainstExactAllPairs(t *testing.T) {
	// The cached modes must also agree with the explicit all-pairs replay,
	// not just with the default per-event evaluation.  The distributed
	// reference records no abundance samples, so those are compared with the
	// serial EvalFull run, which itself matches the reference.
	sc := allPairsScenario{ssets: 10, generations: 100, mutation: 0.25, seed: 31}
	want := sc.allPairsRun(t)
	full := sc.serialRun(t, fitness.EvalFull)
	assertMatchesAllPairs(t, fitness.EvalFull.String(), want, full)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		got := sc.serialRun(t, mode)
		assertMatchesAllPairs(t, mode.String(), want, got)
		if len(full.Samples) != len(got.Samples) {
			t.Fatalf("%v: sample counts differ", mode)
		}
		for i := range full.Samples {
			if full.Samples[i] != got.Samples[i] {
				t.Fatalf("%v: sample %d differs: %+v vs %+v", mode, i, got.Samples[i], full.Samples[i])
			}
		}
	}
}
