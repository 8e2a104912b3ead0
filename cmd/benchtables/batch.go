package main

import (
	"fmt"
	"runtime"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/stats"
	"evogame/internal/strategy"
)

// The batch table measures the bit-sliced SWAR kernel on the full-replay
// hot path: an SSet evaluating its fitness against S opponents, the block
// of games the paper's SSet ranks replay every generation when no fast
// path applies (noise, or the Figure 3 ablation's original kernel).  Two
// modes are compared at each population size, noise level and worker
// count:
//
//   - full-replay: game.KernelFullReplay, every game replayed one round at
//     a time by the scalar reference loop.
//   - batch: game.KernelBatch, up to 64 opponents played simultaneously as
//     uint64 bit lanes (branchless move multiplexing + vertical outcome
//     counters), bit-identical per seed to the scalar rows.
//
// The committed BENCH_6.json is this table's -json output; see
// docs/PERFORMANCE.md for the lane layout and the bypass matrix.

// batchRow is one measurement of the batch table (and one row of the
// BENCH_6.json baseline).
type batchRow struct {
	SSets   int     `json:"ssets"`
	Mode    string  `json:"mode"`
	Noise   float64 `json:"noise"`
	Workers int     `json:"workers"`
	Sweeps  int     `json:"sweeps"`
	Games   int64   `json:"games"`
	Seconds float64 `json:"seconds"`
	// NsPerGame is the mean wall-clock cost of one game.
	NsPerGame float64 `json:"ns_per_game"`
	// SpeedupVsFullReplay is this row's throughput relative to the
	// full-replay row with the same population size, noise and workers.
	SpeedupVsFullReplay float64 `json:"speedup_vs_full_replay"`
	// AllocsPerOp is the measured heap allocations per game.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BatchLaneOccupancy is the mean fraction of the 64 SWAR lanes filled
	// per batch kernel call (0 for the full-replay rows).
	BatchLaneOccupancy float64 `json:"batch_lane_occupancy"`
}

// batchMetrics is the JSON shape of the flat Metrics export (see
// fitness.Metrics), summed over every engine the batch table measured.
type batchMetrics struct {
	CachePlays    int64 `json:"cache_plays"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	CacheBypassed int64 `json:"cache_bypassed"`
	CacheEvicted  int64 `json:"cache_evicted"`
	ScalarGames   int64 `json:"scalar_games"`
	CycleGames    int64 `json:"cycle_games"`
	BatchGames    int64 `json:"batch_games"`
	BatchCalls    int64 `json:"batch_calls"`
	// BatchLaneOccupancy is the mean fraction of the 64 SWAR lanes filled
	// per batch call over the whole table.
	BatchLaneOccupancy float64 `json:"batch_lane_occupancy"`
}

// batchDoc is the machine-readable envelope of the batch table.
type batchDoc struct {
	Table       string       `json:"table"`
	Seed        uint64       `json:"seed"`
	Rounds      int          `json:"rounds"`
	MemorySteps int          `json:"memory_steps"`
	GoMaxProcs  int          `json:"go_max_procs"`
	Metrics     batchMetrics `json:"metrics"`
	Rows        []batchRow   `json:"rows"`
}

// tableBatch builds random strategy tables at S in {32, 128, 512} and
// measures a full fitness sweep (every SSet against all S opponents) per
// kernel mode, noise level and worker count.
func tableBatch(opts options) error {
	const memSteps = 1
	rounds := game.DefaultRounds
	doc := batchDoc{
		Table:       "batch",
		Seed:        opts.seed,
		Rounds:      rounds,
		MemorySteps: memSteps,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	workerCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workerCounts = append(workerCounts, p)
	}
	if !opts.jsonOut {
		header(opts, "Batch table — scalar full replay vs bit-sliced SWAR kernel (full fitness sweep, memory-one)")
		fmt.Fprintf(opts.out, "workload: S x S games per sweep, %d rounds/game, random pure strategies\n", rounds)
	}
	t := stats.NewTable("SSets", "Kernel", "Noise", "Workers", "Games", "Seconds", "ns/game", "Allocs/game", "Lanes", "Speedup")
	var agg fitness.Metrics
	for _, ssets := range []int{32, 128, 512} {
		table := randomTable(opts.seed, ssets, memSteps)
		// Repeat small sweeps so every measurement covers comparable work.
		sweeps := 512 / ssets
		if opts.full {
			sweeps *= 4
		}
		for _, noise := range []float64{0, 0.05} {
			for _, workers := range workerCounts {
				var baseNs float64
				for _, mode := range []string{"full-replay", "batch"} {
					row, kstats, err := measureBatch(mode, table, rounds, memSteps, sweeps, noise, workers, opts.seed)
					if err != nil {
						return err
					}
					agg.AddEngine(kstats)
					if mode == "full-replay" {
						baseNs = row.NsPerGame
					}
					if row.NsPerGame > 0 {
						row.SpeedupVsFullReplay = baseNs / row.NsPerGame
					}
					doc.Rows = append(doc.Rows, row)
					t.AddRow(row.SSets, row.Mode, row.Noise, row.Workers, row.Games,
						fmt.Sprintf("%.4f", row.Seconds),
						fmt.Sprintf("%.0f", row.NsPerGame),
						fmt.Sprintf("%.2f", row.AllocsPerOp),
						fmt.Sprintf("%.2f", row.BatchLaneOccupancy),
						fmt.Sprintf("%.1fx", row.SpeedupVsFullReplay))
				}
			}
		}
	}
	doc.Metrics = batchMetrics{
		CachePlays:         agg.CachePlays,
		CacheHits:          agg.CacheHits,
		CacheMisses:        agg.CacheMisses,
		CacheBypassed:      agg.CacheBypassed,
		CacheEvicted:       agg.CacheEvicted,
		ScalarGames:        agg.ScalarGames,
		CycleGames:         agg.CycleGames,
		BatchGames:         agg.BatchGames,
		BatchCalls:         agg.BatchCalls,
		BatchLaneOccupancy: agg.BatchLaneOccupancy(),
	}
	return emit(opts, doc, t,
		"note: batch plays up to 64 opponents per call as uint64 bit lanes; noisy rows pre-draw",
		"the per-round error flips in scalar order, so every row is bit-identical per seed.",
		"BENCH_6.json is this table's -json output; see docs/PERFORMANCE.md")
}

// measureBatch runs `sweeps` full fitness sweeps (every SSet in the table
// against all S opponents through fitness.PlayAll) under the requested kernel
// mode and reports per-game cost, allocations and SWAR lane occupancy,
// plus the engine's kernel-mix counters for the aggregate Metrics export.
func measureBatch(mode string, table []strategy.Strategy, rounds, memSteps, sweeps int, noise float64, workers int, seed uint64) (batchRow, game.KernelStats, error) {
	kernel := game.KernelBatch
	if mode == "full-replay" {
		kernel = game.KernelFullReplay
	}
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      rounds,
		MemorySteps: memSteps,
		Noise:       noise,
		Kernel:      kernel,
	})
	if err != nil {
		return batchRow{}, game.KernelStats{}, err
	}
	sweep := func(sweepSrc *rng.Source) (int64, error) {
		games := int64(0)
		sink := 0.0
		for _, s := range table {
			var src *rng.Source
			if sweepSrc != nil {
				src = sweepSrc.Split()
			}
			f, err := fitness.PlayAll(eng, s, table, workers, src)
			if err != nil {
				return 0, err
			}
			sink += f
			games += int64(len(table))
		}
		_ = sink
		return games, nil
	}
	newSweepSrc := func() *rng.Source {
		if noise > 0 {
			return rng.New(seed + 1)
		}
		return nil
	}
	// Warm the engine's pooled SWAR buffers so the measured sweeps see the
	// steady state.
	if _, err := sweep(newSweepSrc()); err != nil {
		return batchRow{}, game.KernelStats{}, err
	}

	stats0 := eng.KernelStats()
	cost, err := timeSweeps(sweeps, func() (int64, error) { return sweep(newSweepSrc()) })
	if err != nil {
		return batchRow{}, game.KernelStats{}, err
	}
	stats1 := eng.KernelStats()
	row := batchRow{
		SSets:       len(table),
		Mode:        mode,
		Noise:       noise,
		Workers:     workers,
		Sweeps:      sweeps,
		Games:       cost.games,
		Seconds:     cost.seconds,
		NsPerGame:   cost.nsPerGame,
		AllocsPerOp: cost.allocsPerGame,
	}
	delta := game.KernelStats{
		ScalarGames: stats1.ScalarGames - stats0.ScalarGames,
		CycleGames:  stats1.CycleGames - stats0.CycleGames,
		BatchGames:  stats1.BatchGames - stats0.BatchGames,
		BatchCalls:  stats1.BatchCalls - stats0.BatchCalls,
	}
	row.BatchLaneOccupancy = delta.BatchLaneOccupancy()
	return row, delta, nil
}
