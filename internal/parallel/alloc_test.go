package parallel

import (
	"runtime"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/game"
)

// commShape is the incr-comm-ckpt benchmark shape without its checkpoints:
// five ranks of one worker, 64 memory-six SSets, noiseless EvalIncremental,
// a comparison every generation, so that a generation is little compute
// and mostly the Nature Agent's broadcasts.
func commShape(mutation float64, gens int) Config {
	return Config{
		Ranks:          5,
		WorkersPerRank: 1,
		NumSSets:       64,
		AgentsPerSSet:  4,
		MemorySteps:    6,
		Rounds:         game.DefaultRounds,
		PCRate:         1,
		MutationRate:   mutation,
		Beta:           1,
		Generations:    gens,
		Seed:           2013,
		OptLevel:       OptFusedFitness,
		EvalMode:       fitness.EvalIncremental,
	}
}

// heapCounts returns the heap allocations and bytes the process has made.
func heapCounts() (allocs, bytes int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Mallocs), int64(ms.TotalAlloc)
}

// perGeneration returns the heap allocations and bytes one generation of
// cfg costs: the difference between runs of n and 2n generations, divided
// by n, so that the run's setup cancels.
func perGeneration(t *testing.T, cfg Config, n int) (allocs, bytes float64) {
	t.Helper()
	measure := func(gens int) (int64, int64) {
		cfg.Generations = gens
		runtime.GC()
		a0, b0 := heapCounts()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		a1, b1 := heapCounts()
		return a1 - a0, b1 - b0
	}
	a1, b1 := measure(n)
	a2, b2 := measure(2 * n)
	return float64(a2-a1) / float64(n), float64(b2-b1) / float64(n)
}

// TestDistributedGenerationAllocations pins what a distributed generation
// of the incr-comm-ckpt shape allocates.  Without mutation (a negative
// rate; zero selects the paper's 0.05) a generation is two broadcasts and
// two fitness returns, four payload copies: each broadcast makes one copy
// all SSet ranks share, encoded from a reused buffer.  With mutation each
// SSet rank decodes the mutant into its own scratch strategy, and only the
// first rank to intern it clones it.  It is not skipped under -short; the
// race detector's pool drops void only the byte gate (see raceEnabled).
func TestDistributedGenerationAllocations(t *testing.T) {
	const gens = 10000
	allocs, _ := perGeneration(t, commShape(-1, gens), gens)
	t.Logf("no mutation: %.2f allocs per generation", allocs)
	if allocs > 5 {
		t.Errorf("a mutation-free generation makes %.2f allocations, want at most 5", allocs)
	}
	_, bytes := perGeneration(t, commShape(0.2, gens), gens)
	t.Logf("mutation 0.2: %.0f B per generation", bytes)
	if bytes > 1024 && !raceEnabled {
		t.Errorf("a generation at mutation 0.2 allocates %.0f B, want at most 1 KiB", bytes)
	}
}

// BenchmarkDistributedGeneration runs the incr-comm-ckpt shape for 2,000
// generations per op and reports the heap allocations and bytes per
// generation, setup included.
func BenchmarkDistributedGeneration(b *testing.B) {
	cfg := commShape(0.2, 2000)
	b.ReportAllocs()
	a0, b0 := heapCounts()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	a1, b1 := heapCounts()
	gens := float64(b.N * cfg.Generations)
	b.ReportMetric(float64(a1-a0)/gens, "allocs/gen")
	b.ReportMetric(float64(b1-b0)/gens, "B/gen")
}
