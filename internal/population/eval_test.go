package population

import (
	"context"
	"testing"

	"evogame/internal/fitness"
)

// runWithEvalMode runs the base scenario under one evaluation mode and
// returns the model for inspection.
func runWithEvalMode(t *testing.T, mutate func(*Config), mode fitness.EvalMode, generations int) (*Model, Result) {
	t.Helper()
	cfg := baseConfig()
	cfg.EvalMode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	m := mustModel(t, cfg)
	res, err := m.Run(context.Background(), generations)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func assertSameDynamics(t *testing.T, mode fitness.EvalMode, want, got Result) {
	t.Helper()
	if want.NatureStats != got.NatureStats {
		t.Fatalf("%v: nature stats differ: %+v vs %+v", mode, got.NatureStats, want.NatureStats)
	}
	for i := range want.FinalStrategies {
		if !want.FinalStrategies[i].Equal(got.FinalStrategies[i]) {
			t.Fatalf("%v: final table differs at SSet %d", mode, i)
		}
	}
	if len(want.Samples) != len(got.Samples) {
		t.Fatalf("%v: sample counts differ", mode)
	}
	for i := range want.Samples {
		if want.Samples[i] != got.Samples[i] {
			t.Fatalf("%v: sample %d differs: %+v vs %+v", mode, i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestEvalModesIdenticalDynamics(t *testing.T) {
	mutate := func(c *Config) {
		c.NumSSets = 14
		c.MutationRate = 0.3
		c.SampleEvery = 20
		c.Seed = 19
	}
	_, want := runWithEvalMode(t, mutate, fitness.EvalFull, 150)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		_, got := runWithEvalMode(t, mutate, mode, 150)
		assertSameDynamics(t, mode, want, got)
	}
}

func TestEvalModesNoiseBypassIdentical(t *testing.T) {
	// With noise the pair cache is invalid; the cached modes must fall back
	// to the full path so that even the games-played count matches.
	mutate := func(c *Config) {
		c.Noise = 0.05
		c.MutationRate = 0.2
		c.Seed = 23
	}
	full, want := runWithEvalMode(t, mutate, fitness.EvalFull, 80)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		m, got := runWithEvalMode(t, mutate, mode, 80)
		assertSameDynamics(t, mode, want, got)
		if m.GamesPlayed() != full.GamesPlayed() {
			t.Fatalf("%v: bypass played %d games, full played %d", mode, m.GamesPlayed(), full.GamesPlayed())
		}
	}
}

func TestEvalModesReduceGamesPlayed(t *testing.T) {
	mutate := func(c *Config) {
		c.NumSSets = 48
		c.MutationRate = 0.1
		c.Seed = 41
	}
	full, _ := runWithEvalMode(t, mutate, fitness.EvalFull, 120)
	cached, _ := runWithEvalMode(t, mutate, fitness.EvalCached, 120)
	incr, _ := runWithEvalMode(t, mutate, fitness.EvalIncremental, 120)
	if full.GamesPlayed() == 0 || cached.GamesPlayed() == 0 || incr.GamesPlayed() == 0 {
		t.Fatal("expected games in every mode")
	}
	if cached.GamesPlayed() >= full.GamesPlayed() {
		t.Fatalf("cached mode played %d games, full mode %d", cached.GamesPlayed(), full.GamesPlayed())
	}
	if incr.GamesPlayed() > cached.GamesPlayed() {
		t.Fatalf("incremental mode played %d games, cached mode %d", incr.GamesPlayed(), cached.GamesPlayed())
	}
}

func TestEvalModeInvalidRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.EvalMode = fitness.EvalMode(9)
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted an invalid eval mode")
	}
}
