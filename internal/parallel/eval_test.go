package parallel

import (
	"context"
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/population"
	"evogame/internal/strategy"
)

func runMode(t *testing.T, mutate func(*Config), mode fitness.EvalMode) Result {
	t.Helper()
	cfg := baseConfig()
	cfg.EvalMode = mode
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return res
}

func assertSameTable(t *testing.T, label string, want, got []strategy.Strategy) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: table sizes differ", label)
	}
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("%s: final table differs at SSet %d", label, i)
		}
	}
}

func TestEvalModesIdenticalDynamics(t *testing.T) {
	want := runMode(t, nil, fitness.EvalFull)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		got := runMode(t, nil, mode)
		assertSameTable(t, mode.String(), want.FinalStrategies, got.FinalStrategies)
		if want.NatureStats != got.NatureStats {
			t.Fatalf("%v: nature stats differ: %+v vs %+v", mode, got.NatureStats, want.NatureStats)
		}
	}
}

// TestEvalModesIdenticalAcrossRankCounts holds the cached modes to the
// determinism contract across rank counts: the final table, and — since
// every SSet rank of a run plays through one pair store — the games the
// run stored, which the ranks racing on that store (under -race, in CI)
// must not move.  Kernel games may exceed the stored ones by pairs two
// ranks played at once, so only a single SSet rank pins them equal.
func TestEvalModesIdenticalAcrossRankCounts(t *testing.T) {
	shapes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"m2-mut0.5", func(c *Config) {
			c.MemorySteps = 2
			c.MutationRate = 0.5
			c.Generations = 1000
		}},
		{"m6", func(c *Config) {
			c.MemorySteps = 6
			c.Generations = 400
		}},
	}
	for _, sh := range shapes {
		for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
			t.Run(sh.name+"/"+mode.String(), func(t *testing.T) {
				var want Result
				for _, ranks := range []int{2, 3, 5, 9} {
					for repeat := 0; repeat < 2; repeat++ {
						res := runMode(t, func(c *Config) {
							sh.mutate(c)
							c.Ranks = ranks
						}, mode)
						m := res.Metrics
						kernel := m.ScalarGames + m.CycleGames + m.BatchGames
						if kernel < res.TotalGames || (ranks == 2 && kernel != res.TotalGames) {
							t.Fatalf("ranks %d: kernels played %d games for %d stored", ranks, kernel, res.TotalGames)
						}
						if want.FinalStrategies == nil {
							want = res
							continue
						}
						assertSameTable(t, fmt.Sprintf("ranks %d", ranks), want.FinalStrategies, res.FinalStrategies)
						if res.TotalGames != want.TotalGames {
							t.Fatalf("ranks %d repeat %d: %d games stored, %d at 2 ranks", ranks, repeat, res.TotalGames, want.TotalGames)
						}
					}
				}
				if want.TotalGames == 0 {
					t.Fatal("no games stored")
				}
			})
		}
	}
}

// TestEvalModesMatchSerialEngine pins both engines, in every evaluation
// mode, to the distributed EvalFull run, which plays every pair through
// sset.Fitness: the exact all-pairs reference.
func TestEvalModesMatchSerialEngine(t *testing.T) {
	mutate := func(c *Config) {
		c.Generations = 80
		c.MutationRate = 0.3
	}
	want := runMode(t, mutate, fitness.EvalFull)
	cfg := baseConfig()
	mutate(&cfg)
	for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached, fitness.EvalIncremental} {
		serial, err := population.New(population.Config{
			NumSSets:      cfg.NumSSets,
			AgentsPerSSet: cfg.AgentsPerSSet,
			MemorySteps:   cfg.MemorySteps,
			Rounds:        cfg.Rounds,
			PCRate:        cfg.PCRate,
			MutationRate:  cfg.MutationRate,
			Beta:          cfg.Beta,
			Seed:          cfg.Seed,
			EvalMode:      mode,
		})
		if err != nil {
			t.Fatal(err)
		}
		serialRes, err := serial.Run(context.Background(), cfg.Generations)
		if err != nil {
			t.Fatal(err)
		}
		assertSameTable(t, "serial "+mode.String(), want.FinalStrategies, serialRes.FinalStrategies)
		if serialRes.NatureStats != want.NatureStats {
			t.Fatalf("serial %v: nature stats differ: %+v vs %+v", mode, serialRes.NatureStats, want.NatureStats)
		}
		par := runMode(t, mutate, mode)
		assertSameTable(t, "parallel "+mode.String(), want.FinalStrategies, par.FinalStrategies)
		if par.NatureStats != want.NatureStats {
			t.Fatalf("parallel %v: nature stats differ: %+v vs %+v", mode, par.NatureStats, want.NatureStats)
		}
	}
}

func TestEvalModesReduceTotalGames(t *testing.T) {
	full := runMode(t, nil, fitness.EvalFull)
	cached := runMode(t, nil, fitness.EvalCached)
	incr := runMode(t, nil, fitness.EvalIncremental)
	if full.TotalGames == 0 || cached.TotalGames == 0 || incr.TotalGames == 0 {
		t.Fatal("expected games in every mode")
	}
	if cached.TotalGames >= full.TotalGames {
		t.Fatalf("cached mode played %d games, full mode %d", cached.TotalGames, full.TotalGames)
	}
	if incr.TotalGames > cached.TotalGames {
		t.Fatalf("incremental mode played %d games, cached mode %d", incr.TotalGames, cached.TotalGames)
	}
}

func TestEvalModesNoiseBypassIdentical(t *testing.T) {
	mutate := func(c *Config) {
		c.Noise = 0.05
		c.Generations = 30
	}
	full := runMode(t, mutate, fitness.EvalFull)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		got := runMode(t, mutate, mode)
		assertSameTable(t, mode.String(), full.FinalStrategies, got.FinalStrategies)
		if got.TotalGames != full.TotalGames {
			t.Fatalf("%v: bypass played %d games, full played %d", mode, got.TotalGames, full.TotalGames)
		}
	}
}

func TestEvalModeWorkersAndOptLevelsInvariant(t *testing.T) {
	// The cached mode must not depend on WorkersPerRank (which only the
	// EvalFull path fans out over) or on the kernel optimization level.
	var want []strategy.Strategy
	for _, workers := range []int{1, 4} {
		for _, lvl := range []OptLevel{OptOriginal, OptFusedFitness} {
			res := runMode(t, func(c *Config) {
				c.WorkersPerRank = workers
				c.OptLevel = lvl
				c.Generations = 25
			}, fitness.EvalCached)
			if want == nil {
				want = res.FinalStrategies
				continue
			}
			assertSameTable(t, "cached", want, res.FinalStrategies)
		}
	}
}

func TestEvalModeSkipFitnessWhenIdleCompatible(t *testing.T) {
	mutate := func(c *Config) {
		c.PCRate = 0.2
		c.Generations = 50
	}
	want := runMode(t, mutate, fitness.EvalFull)
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		res := runMode(t, func(c *Config) {
			mutate(c)
			c.SkipFitnessWhenIdle = true
		}, mode)
		assertSameTable(t, mode.String(), want.FinalStrategies, res.FinalStrategies)
	}
}

func TestEvalModeInvalidRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.EvalMode = fitness.EvalMode(5)
	if _, err := Run(cfg); err == nil {
		t.Fatal("accepted an invalid eval mode")
	}
}
