package main

import (
	"context"
	"fmt"
	"runtime"

	"evogame/internal/ensemble"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/population"
	"evogame/internal/stats"
)

// The ensemble table measures cross-run pair-cache sharing: N replicates of
// one noiseless cached configuration run under internal/ensemble with the
// replicates either sharing one PairCache store ("shared") or each building
// a private cache exactly as a solo run would ("private").  The baseline is
// the private one-worker row — N replicates run strictly back to back, the
// way every averaged figure in the paper was produced before the ensemble
// tier existed.
//
// The workload pins the initial strategy table (drawn once from the bench
// seed, shared by every replicate) while the per-replicate seeds still
// derive distinct nature streams, so replicates diverge through adoption
// and mutation but start from the same pair table.  Replicate 0 pays the
// warm-up misses; under sharing, later replicates are served those pairs as
// hits, which is where the wall-clock win on a single core comes from.  The
// warm_* columns report the cache traffic of replicates 1..N-1 only — the
// cross-run hit-rate evidence.
//
// The committed BENCH_7.json is this table's -json output; see
// docs/PERFORMANCE.md ("Layer 5").

// ensembleRow is one measurement of the ensemble table (and one row of the
// BENCH_7.json baseline).
type ensembleRow struct {
	EnsembleWorkers int `json:"ensemble_workers"`
	// Cache is "shared" (one store, per-replicate views) or "private".
	Cache      string `json:"cache"`
	Replicates int    `json:"replicates"`
	// Seconds is the end-to-end ensemble wall-clock.
	Seconds float64 `json:"seconds"`
	// SpeedupVsSerial is the baseline (private caches, one ensemble worker)
	// wall-clock divided by this row's.
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	// Games is the number of games actually executed by the kernels, summed
	// over replicates; sharing shrinks it, never the per-replicate results.
	Games       int64 `json:"games"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// WarmHits / WarmMisses restrict the cache counters to replicates
	// 1..N-1, the ones that can benefit from earlier replicates' work.
	WarmHits    int64   `json:"warm_hits"`
	WarmMisses  int64   `json:"warm_misses"`
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// ensembleDoc is the machine-readable envelope of the ensemble table.
type ensembleDoc struct {
	Table       string        `json:"table"`
	Seed        uint64        `json:"seed"`
	Rounds      int           `json:"rounds"`
	MemorySteps int           `json:"memory_steps"`
	SSets       int           `json:"ssets"`
	Replicates  int           `json:"replicates"`
	Generations int           `json:"generations"`
	GoMaxProcs  int           `json:"go_max_procs"`
	Rows        []ensembleRow `json:"rows"`
}

// tableEnsemble measures an 8-replicate noiseless serial-engine ensemble at
// every ensemble worker count in {1, 2, 4, 8}, shared vs private caches.
func tableEnsemble(opts options) error {
	const (
		memSteps   = 6
		ssets      = 128
		replicates = 8
	)
	generations := 96
	if opts.full {
		generations *= 4
	}
	base := population.Config{
		NumSSets:          ssets,
		AgentsPerSSet:     2,
		MemorySteps:       memSteps,
		Rounds:            game.DefaultRounds,
		Noise:             0,
		PCRate:            1,
		MutationRate:      0.05,
		Beta:              1,
		Seed:              opts.seed,
		EvalMode:          fitness.EvalCached,
		InitialStrategies: randomTable(opts.seed, ssets, memSteps),
	}
	doc := ensembleDoc{
		Table:       "ensemble",
		Seed:        opts.seed,
		Rounds:      base.Rounds,
		MemorySteps: memSteps,
		SSets:       ssets,
		Replicates:  replicates,
		Generations: generations,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	if !opts.jsonOut {
		header(opts, "Ensemble table — cross-run pair-cache sharing vs serial replicates (noiseless, cached)")
		fmt.Fprintf(opts.out, "workload: %d replicates, S=%d, memory-%d, %d generations, fixed initial table\n",
			replicates, ssets, memSteps, generations)
	}
	t := stats.NewTable("Workers", "Cache", "Seconds", "Speedup", "Games", "Hits", "Misses", "WarmHits", "WarmHitRate")
	var baseline float64
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cache := range []string{"private", "shared"} {
			res, err := ensemble.RunSerial(context.Background(), base, generations, ensemble.Config{
				Replicates:    replicates,
				Workers:       workers,
				PrivateCaches: cache == "private",
			})
			if err != nil {
				return err
			}
			row := ensembleRow{
				EnsembleWorkers: workers,
				Cache:           cache,
				Replicates:      replicates,
				Seconds:         res.WallClock.Seconds(),
				Games:           res.Metrics.ScalarGames + res.Metrics.CycleGames + res.Metrics.BatchGames + res.Metrics.VectorGames,
				CacheHits:       res.Metrics.CacheHits,
				CacheMisses:     res.Metrics.CacheMisses,
			}
			for _, r := range res.Runs[1:] {
				row.WarmHits += r.Metrics.CacheHits
				row.WarmMisses += r.Metrics.CacheMisses
			}
			if lookups := row.WarmHits + row.WarmMisses; lookups > 0 {
				row.WarmHitRate = float64(row.WarmHits) / float64(lookups)
			}
			if workers == 1 && cache == "private" {
				baseline = row.Seconds
			}
			if row.Seconds > 0 {
				row.SpeedupVsSerial = baseline / row.Seconds
			}
			doc.Rows = append(doc.Rows, row)
			t.AddRow(row.EnsembleWorkers, row.Cache,
				fmt.Sprintf("%.3f", row.Seconds),
				fmt.Sprintf("%.2fx", row.SpeedupVsSerial),
				row.Games, row.CacheHits, row.CacheMisses, row.WarmHits,
				fmt.Sprintf("%.3f", row.WarmHitRate))
		}
	}
	return emit(opts, doc, t,
		"note: every replicate is bit-identical to running its seed solo; sharing only changes",
		"which lookups hit.  warm_* columns cover replicates 1..N-1 (the cross-run evidence).",
		"BENCH_7.json is this table's -json output; see docs/PERFORMANCE.md")
}
