package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/stats"
	"evogame/internal/strategy"
)

// The kernel table measures the evaluation pipeline's fast paths on the
// workload the paper scales: a full all-pairs fitness evaluation of S
// memory-one strategies at 200 rounds per game.  Three pipeline levels are
// compared:
//
//   - full-replay: the pre-optimization reference kernel (game.KernelFullReplay),
//     every round of every game replayed.
//   - cycle-closing: game.KernelAuto closes the periodic joint-state
//     trajectory in closed form (prefix + k*cycle + tail), bit-identical for
//     integer payoff matrices.
//   - cached: the interned, sharded PairCache in steady state — every
//     lookup is an ID-pair hit, no game kernel runs at all.
//
// The committed BENCH_5.json is this table's -json output; see
// docs/PERFORMANCE.md for how each level triggers inside the engines.

// kernelRow is one measurement of the kernel table (and one row of the
// BENCH_5.json baseline).
type kernelRow struct {
	SSets   int     `json:"ssets"`
	Mode    string  `json:"mode"`
	Sweeps  int     `json:"sweeps"`
	Games   int64   `json:"games"`
	Seconds float64 `json:"seconds"`
	// NsPerGame is the mean wall-clock cost of one pair evaluation.
	NsPerGame float64 `json:"ns_per_game"`
	// SpeedupVsFullReplay is this row's throughput relative to the
	// full-replay row of the same population size.
	SpeedupVsFullReplay float64 `json:"speedup_vs_full_replay"`
	// AllocsPerOp is the measured heap allocations per pair evaluation
	// (the cached path is required to be 0).
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// kernelDoc is the machine-readable envelope of the kernel table.
type kernelDoc struct {
	Table       string      `json:"table"`
	Seed        uint64      `json:"seed"`
	Rounds      int         `json:"rounds"`
	MemorySteps int         `json:"memory_steps"`
	GoMaxProcs  int         `json:"go_max_procs"`
	Rows        []kernelRow `json:"rows"`
}

// kernelTable builds random strategy tables at S in {32, 128, 512} and
// measures a full all-pairs evaluation per pipeline level.
func tableKernel(opts options) error {
	const memSteps = 1
	rounds := game.DefaultRounds
	doc := kernelDoc{
		Table:       "kernel",
		Seed:        opts.seed,
		Rounds:      rounds,
		MemorySteps: memSteps,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	if !opts.jsonOut {
		header("Kernel table — full replay vs cycle-closing vs cached (all-pairs evaluation, memory-one)")
		fmt.Printf("workload: S x (S-1) ordered-pair games, %d rounds/game, noiseless random pure strategies\n", rounds)
	}
	t := stats.NewTable("SSets", "Pipeline level", "Games", "Seconds", "ns/game", "Allocs/game", "Speedup")
	for _, ssets := range []int{32, 128, 512} {
		src := rng.New(opts.seed)
		table := make([]strategy.Strategy, ssets)
		for i := range table {
			table[i] = strategy.RandomPure(memSteps, src)
		}
		// Repeat small sweeps so every measurement covers comparable work.
		sweeps := 512 / ssets
		if opts.full {
			sweeps *= 4
		}
		var baseNs float64
		for _, mode := range []string{"full-replay", "cycle-closing", "cached"} {
			row, err := measureKernel(mode, table, rounds, memSteps, sweeps)
			if err != nil {
				return err
			}
			if mode == "full-replay" {
				baseNs = row.NsPerGame
			}
			if row.NsPerGame > 0 {
				row.SpeedupVsFullReplay = baseNs / row.NsPerGame
			}
			doc.Rows = append(doc.Rows, row)
			t.AddRow(row.SSets, row.Mode, row.Games,
				fmt.Sprintf("%.4f", row.Seconds),
				fmt.Sprintf("%.0f", row.NsPerGame),
				fmt.Sprintf("%.1f", row.AllocsPerOp),
				fmt.Sprintf("%.1fx", row.SpeedupVsFullReplay))
		}
	}
	if opts.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Print(t.String())
	fmt.Println("note: cycle-closing computes fitness as prefix + k*cycle + tail over the periodic")
	fmt.Println("joint-state walk; cached is the steady-state interned pair cache (every lookup a hit).")
	fmt.Println("BENCH_5.json is this table's -json output; see docs/PERFORMANCE.md")
	return nil
}

// measureKernel runs the requested pipeline level over `sweeps` full
// all-pairs evaluations and reports per-game cost and allocations.
func measureKernel(mode string, table []strategy.Strategy, rounds, memSteps, sweeps int) (kernelRow, error) {
	kernel := game.KernelAuto
	if mode == "full-replay" {
		kernel = game.KernelFullReplay
	}
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      rounds,
		MemorySteps: memSteps,
		Kernel:      kernel,
	})
	if err != nil {
		return kernelRow{}, err
	}

	var sweep func() (int64, error)
	switch mode {
	case "full-replay", "cycle-closing":
		sweep = func() (int64, error) {
			games := int64(0)
			sink := 0.0
			for i := range table {
				for j := range table {
					if i == j {
						continue
					}
					res, err := eng.Play(table[i], table[j], nil)
					if err != nil {
						return 0, err
					}
					sink += res.FitnessA
					games++
				}
			}
			_ = sink
			return games, nil
		}
	case "cached":
		cache, err := fitness.NewPairCache(eng)
		if err != nil {
			return kernelRow{}, err
		}
		ids := make([]uint32, len(table))
		for i, s := range table {
			if ids[i], err = cache.Interner().Intern(s); err != nil {
				return kernelRow{}, err
			}
		}
		sweep = func() (int64, error) {
			games := int64(0)
			sink := 0.0
			for i := range ids {
				for j := range ids {
					if i == j {
						continue
					}
					res, err := cache.PlayID(ids[i], ids[j])
					if err != nil {
						return 0, err
					}
					sink += res.FitnessA
					games++
				}
			}
			_ = sink
			return games, nil
		}
		// Warm the cache so the measured sweeps are the steady state the
		// engines see after generation one.
		if _, err := sweep(); err != nil {
			return kernelRow{}, err
		}
	default:
		return kernelRow{}, fmt.Errorf("unknown kernel mode %q", mode)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	totalGames := int64(0)
	for s := 0; s < sweeps; s++ {
		games, err := sweep()
		if err != nil {
			return kernelRow{}, err
		}
		totalGames += games
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	row := kernelRow{
		SSets:   len(table),
		Mode:    mode,
		Sweeps:  sweeps,
		Games:   totalGames,
		Seconds: secs,
	}
	if totalGames > 0 {
		row.NsPerGame = secs * 1e9 / float64(totalGames)
		row.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(totalGames)
	}
	return row, nil
}
