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

// BenchmarkIncrementalWellMixed measures an EvalIncremental strategy
// change in a well-mixed population of S SSets with every row built: one
// op is an adoption (70%) or a mutation to one of 40 memory-six strategies
// (30%), followed by the Fitness read that rebuilds the changed SSet's
// row.  The op sequence is replayed once before timing, so every pair is
// cached and the benchmark measures the row updates, not the game kernel.
// It uses only the package's exported API, so the same file measures any
// revision of the matrix.
func BenchmarkIncrementalWellMixed(b *testing.B) {
	const (
		distinct = 20
		mutants  = 40
		ops      = 4096
	)
	for _, n := range []int{64, 256, 1024} {
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
			pool := make([]strategy.Strategy, mutants)
			for k := range pool {
				pool[k] = strategy.RandomPure(6, src)
			}
			table := make([]strategy.Strategy, n)
			for i := range table {
				table[i] = pool[src.Intn(distinct)]
			}
			type change struct {
				idx, teacher int
				mutant       strategy.Strategy // nil for an adoption
			}
			seq := make([]change, ops)
			for k := range seq {
				seq[k] = change{idx: src.Intn(n), teacher: src.Intn(n)}
				if src.Intn(10) < 3 {
					seq[k].mutant = pool[src.Intn(mutants)]
				}
			}
			ev, err := fitness.NewEvaluator(eng, g, table, 0, n, fitness.EvalIncremental, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := range table {
				if _, err := ev.Fitness(i); err != nil {
					b.Fatal(err)
				}
			}
			step := func(c change) {
				var err error
				if c.mutant != nil {
					err = ev.Apply(c.idx, c.mutant)
				} else {
					err = ev.Adopt(c.idx, c.teacher)
				}
				if err != nil {
					b.Fatal(err)
				}
				f, err := ev.Fitness(c.idx)
				if err != nil {
					b.Fatal(err)
				}
				wellMixedSink += f
			}
			for _, c := range seq {
				step(c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(seq[i%ops])
			}
		})
	}
}
