package parallel

import (
	"testing"
	"time"

	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/game"
)

// laggingConfig is a memory-three run whose mutation stream makes many
// short-lived mutants: half the generations draw a fresh strategy.
func laggingConfig(ranks int, mode fitness.EvalMode) Config {
	return Config{
		Ranks:         ranks,
		NumSSets:      24,
		AgentsPerSSet: 2,
		MemorySteps:   3,
		Rounds:        game.DefaultRounds,
		PCRate:        1,
		MutationRate:  0.5,
		Generations:   600,
		Seed:          29,
		OptLevel:      OptFusedFitness,
		EvalMode:      mode,
	}
}

// TestLaggingRanksKeepGameCounts runs a five-rank memory-three run whose
// SSet ranks are pushed generations apart by delayed sends, so that a
// leading rank leaves short-lived mutants a lagging rank has yet to enter.
// The IDs of those mutants must not be retired under the lagging rank:
// the run must store exactly the games of the two-rank run, the count
// recorded before IDs were retired, and reach the same table and event
// counts.  It is not skipped under -short, so the race detector sees it.
func TestLaggingRanksKeepGameCounts(t *testing.T) {
	// Games stored by the two-rank run, recorded on the store that kept
	// every strategy it had seen.
	want := map[fitness.EvalMode]int64{fitness.EvalCached: 4456, fitness.EvalIncremental: 4476}
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		t.Run(mode.String(), func(t *testing.T) {
			two, err := Run(laggingConfig(2, mode))
			if err != nil {
				t.Fatal(err)
			}
			cfg := laggingConfig(5, mode)
			var evs []faults.Event
			for gen := 10; gen < cfg.Generations; gen += 37 {
				evs = append(evs, faults.Event{Kind: faults.Delay, Gen: gen, Rank: 1 + gen%(cfg.Ranks-1), Count: 3, Delay: 300 * time.Microsecond})
			}
			cfg.Faults = faults.NewPlan(evs...)
			five, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if five.Metrics.DelayedMessages == 0 {
				t.Fatal("no send was delayed")
			}
			if two.TotalGames != want[mode] || five.TotalGames != want[mode] {
				t.Fatalf("games stored: 2 ranks %d, 5 lagging ranks %d, want %d", two.TotalGames, five.TotalGames, want[mode])
			}
			assertSameTable(t, "5 lagging ranks", two.FinalStrategies, five.FinalStrategies)
			if two.NatureStats != five.NatureStats || two.Metrics.CacheEvicted != five.Metrics.CacheEvicted {
				t.Fatalf("events %+v evicted %d at 5 ranks, %+v and %d at 2", five.NatureStats, five.Metrics.CacheEvicted, two.NatureStats, two.Metrics.CacheEvicted)
			}
		})
	}
}

// TestRunReleasesItsStrategies runs a five-rank memory-six run on a store
// the caller passes in, as an ensemble does: once the run is over, the
// store's registry holds no clone but those of the initial table, which a
// later run on the store may start from.
func TestRunReleasesItsStrategies(t *testing.T) {
	cfg := laggingConfig(5, fitness.EvalIncremental)
	cfg.MemorySteps = 6
	store, err := fitness.NewStore(cfg.EngineConfig(), cfg.EvalMode)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SharedCache = store
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := store.Interner()
	live := 0
	for id := uint32(0); int(id) < reg.Len(); id++ {
		if _, err := reg.Strategy(id); err == nil {
			live++
		}
	}
	if reg.Len() < res.NatureStats.Mutations || live > cfg.NumSSets {
		t.Fatalf("%d clones of %d IDs left after a run of %d mutations, want at most the %d initial strategies",
			live, reg.Len(), res.NatureStats.Mutations, cfg.NumSSets)
	}
}

// TestReentryGamesAtMemoryTwo pins the games BenchmarkDistributedReentry's
// memory-two shape stores over 600 generations, recorded before IDs were
// retired: below memory three extinct strategies keep their IDs, and the
// cold log serves them when they re-enter.  The benchmark's own 3,000
// generations stored 53,138 games then.
func TestReentryGamesAtMemoryTwo(t *testing.T) {
	cfg := reentryConfig()
	cfg.Generations = 600
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalGames != 13319 {
		t.Fatalf("%d games stored, want 13319", res.TotalGames)
	}
}
