package fitness_test

import (
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// wellMixedSink keeps the benchmarked fitness sums live.
var wellMixedSink float64

// BenchmarkEvaluatorWellMixed measures the EvalCached fitness evaluation
// of a well-mixed population of S SSets that hold 20 distinct memory-six
// strategies, the ensemble-m6 shape, with every pair already cached.  One
// op is one Fitness call.  It uses only the package's exported API, so the
// same file measures any revision of the evaluator.
func BenchmarkEvaluatorWellMixed(b *testing.B) {
	const distinct = 20
	for _, n := range []int{128, 1024, 4096} {
		b.Run(fmt.Sprintf("S=%d", n), func(b *testing.B) {
			eng, err := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 6})
			if err != nil {
				b.Fatal(err)
			}
			g, err := (topology.Spec{}).Build(n, 0)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(2013)
			pool := make([]strategy.Strategy, distinct)
			for k := range pool {
				pool[k] = strategy.RandomPure(6, src)
			}
			table := make([]strategy.Strategy, n)
			for i := range table {
				table[i] = pool[src.Intn(distinct)]
			}
			ev, err := fitness.NewEvaluator(eng, g, table, 0, n, fitness.EvalCached, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := range table {
				if _, err := ev.Fitness(i); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := ev.Fitness(i % n)
				if err != nil {
					b.Fatal(err)
				}
				wellMixedSink += f
			}
			b.StopTimer()
			if misses := ev.Cache().Misses(); misses > distinct*(distinct+1)/2 {
				b.Fatalf("warm cache missed %d times", misses)
			}
		})
	}
}
