package evogame

// This file is the benchmark harness of deliverable (d): one benchmark per
// table and figure of the paper's evaluation section.  Workloads are scaled
// down so the full suite completes in minutes on a laptop; the benchtables
// command prints the corresponding rows/series, and EXPERIMENTS.md maps each
// benchmark to the paper's numbers.

import (
	"context"
	"fmt"
	"testing"

	"evogame/internal/baseline"
	"evogame/internal/cluster"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/parallel"
	"evogame/internal/perfmodel"
	"evogame/internal/population"
	"evogame/internal/strategy"
)

// BenchmarkTable1PayoffKernel exercises the Prisoner's Dilemma payoff
// resolution underlying Table I.
func BenchmarkTable1PayoffKernel(b *testing.B) {
	m := game.Standard()
	tab := m.Table()
	var sink float64
	for i := 0; i < b.N; i++ {
		my := game.Move(i & 1)
		opp := game.Move((i >> 1) & 1)
		sink += m.Payoff(my, opp) + tab[game.RoundCode(my, opp)]
	}
	_ = sink
}

// BenchmarkTable2StateIdentification measures the per-round state update and
// lookup for the memory-one state space of Table II, in both the original
// linear-search form and the optimized rolling form.
func BenchmarkTable2StateIdentification(b *testing.B) {
	b.Run(game.StateLinearSearch.String(), func(b *testing.B) {
		table := game.NewStateTable(1)
		view := []uint8{0}
		for i := 0; i < b.N; i++ {
			view[0] = uint8(game.RoundCode(game.Move(i&1), game.Move((i>>1)&1)))
			_ = table.FindState(view)
		}
	})
	b.Run(game.StateRolling.String(), func(b *testing.B) {
		state := game.InitialState
		for i := 0; i < b.N; i++ {
			state = (state<<2 | game.RoundCode(game.Move(i&1), game.Move((i>>1)&1))) & 3
		}
		_ = state
	})
}

// BenchmarkTable3MemoryOneGames plays every pair of the sixteen memory-one
// strategies of Table III once.
func BenchmarkTable3MemoryOneGames(b *testing.B) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 1})
	if err != nil {
		b.Fatal(err)
	}
	all := strategy.AllMemoryOne()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range all {
			for _, y := range all {
				if _, err := eng.Play(x, y, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkTable4StrategySpace measures strategy-space accounting and random
// strategy generation across the memory depths of Table IV.
func BenchmarkTable4StrategySpace(b *testing.B) {
	for mem := 1; mem <= MaxMemorySteps; mem++ {
		b.Run(fmt.Sprintf("memory-%d", mem), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := StrategySpaceSize(mem); err != nil {
					b.Fatal(err)
				}
				_ = strategy.NumPureStrategies(mem)
			}
		})
	}
}

// BenchmarkTable5WSLSKernel plays WSLS against the classic strategies (the
// behaviour tabulated in Table V).
func BenchmarkTable5WSLSKernel(b *testing.B) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 1})
	if err != nil {
		b.Fatal(err)
	}
	wsls := strategy.WSLS(1)
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.TFT(1), strategy.WSLS(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, opp := range opponents {
			if _, err := eng.Play(wsls, opp, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable6SSetRatio evaluates the SSets-per-processor efficiency
// model of Table VI.
func BenchmarkTable6SSetRatio(b *testing.B) {
	ratios := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < b.N; i++ {
		if _, err := RatioTable(ScalingOptions{}, ratios, 2048, 6, 2048); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableCapacity evaluates the memory-capacity check of Section V-C.
func BenchmarkTableCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := CheckMemoryCapacity(MachineBlueGeneP, 32768, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Validation runs a scaled-down slice of the Figure 2
// validation study (WSLS emergence) per iteration: 32 SSets for 500
// generations, followed by the k-means clustering of the final population.
func BenchmarkFig2Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Simulate(context.Background(), SimulationConfig{
			NumSSets:      32,
			AgentsPerSSet: 4,
			MemorySteps:   1,
			Rounds:        DefaultRounds,
			Noise:         0.05,
			PCRate:        1,
			MutationRate:  0.05,
			Beta:          0.1,
			Generations:   500,
			Seed:          uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ClusterStrategies(res.FinalStrategies, 4, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3OptimizationLevels runs the same distributed workload at each
// of the four optimization levels of Figure 3.
func BenchmarkFig3OptimizationLevels(b *testing.B) {
	for lvl := parallel.OptOriginal; lvl <= parallel.OptFusedFitness; lvl++ {
		b.Run(lvl.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parallel.Run(parallel.Config{
					Ranks:         5,
					NumSSets:      48,
					AgentsPerSSet: 4,
					MemorySteps:   1,
					Rounds:        DefaultRounds,
					PCRate:        0.1,
					MutationRate:  0.05,
					Generations:   5,
					Seed:          1,
					OptLevel:      lvl,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4StrongScalingSSets runs the distributed engine with a growing
// population on a fixed rank count (the population-size axis of Figure 4)
// and, separately, evaluates the analytic model for the paper's populations.
func BenchmarkFig4StrongScalingSSets(b *testing.B) {
	for _, ssets := range []int{16, 32, 64, 128} {
		b.Run(fmt.Sprintf("real-%dSSets", ssets), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parallel.Run(parallel.Config{
					Ranks:         5,
					NumSSets:      ssets,
					AgentsPerSSet: 4,
					MemorySteps:   1,
					Rounds:        DefaultRounds,
					PCRate:        0.1,
					MutationRate:  0.05,
					Generations:   3,
					Seed:          1,
					OptLevel:      parallel.OptFusedFitness,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("model-sweep", func(b *testing.B) {
		model := perfmodel.NewModel(cluster.BlueGeneP(), perfmodel.DefaultCalibration())
		procs := []int{64, 128, 256, 512, 1024, 2048}
		for i := 0; i < b.N; i++ {
			for _, ssets := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
				if _, err := model.StrongScaling(ssets, 6, procs); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkFig5MemorySweep runs the memory-one .. memory-six workload of
// Figure 5 on the distributed engine.
func BenchmarkFig5MemorySweep(b *testing.B) {
	for mem := 1; mem <= MaxMemorySteps; mem++ {
		b.Run(fmt.Sprintf("memory-%d", mem), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parallel.Run(parallel.Config{
					Ranks:         5,
					NumSSets:      32,
					AgentsPerSSet: 4,
					MemorySteps:   mem,
					Rounds:        DefaultRounds,
					PCRate:        0.1,
					MutationRate:  0.05,
					Generations:   3,
					Seed:          1,
					OptLevel:      parallel.OptFusedFitness,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6aWeakScaling grows the rank count while holding the SSets per
// rank constant (real goroutine ranks), and evaluates the Blue Gene weak
// scaling model.
func BenchmarkFig6aWeakScaling(b *testing.B) {
	for _, ssetRanks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("real-%dranks", ssetRanks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parallel.Run(parallel.Config{
					Ranks:         ssetRanks + 1,
					NumSSets:      8 * ssetRanks,
					AgentsPerSSet: 4,
					MemorySteps:   1,
					Rounds:        DefaultRounds,
					PCRate:        0.1,
					MutationRate:  0.05,
					Generations:   5,
					Seed:          1,
					OptLevel:      parallel.OptFusedFitness,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PredictWeakScaling(ScalingOptions{}, 4096, 4096, 6,
				[]int{1024, 4096, 16384, 65536, 294912}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6bStrongScaling divides a fixed population across a growing
// rank count (real goroutine ranks), and evaluates the Blue Gene strong
// scaling model.
func BenchmarkFig6bStrongScaling(b *testing.B) {
	for _, ssetRanks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("real-%dranks", ssetRanks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := parallel.Run(parallel.Config{
					Ranks:         ssetRanks + 1,
					NumSSets:      64,
					AgentsPerSSet: 4,
					MemorySteps:   1,
					Rounds:        DefaultRounds,
					PCRate:        0.1,
					MutationRate:  0.05,
					Generations:   3,
					Seed:          1,
					OptLevel:      parallel.OptFusedFitness,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PredictStrongScaling(ScalingOptions{}, 32768, 6,
				[]int{1024, 2048, 8192, 16384, 262144}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvalModes compares the shared incremental-fitness subsystem's
// evaluation modes on the serial engine at S in {32, 128, 512} SSets: the
// same noiseless workload is run under full replay, pair-cached and
// incremental evaluation, reporting games per generation as a custom
// metric.  All three modes produce identical dynamics for a given seed.
func BenchmarkEvalModes(b *testing.B) {
	for _, ssets := range []int{32, 128, 512} {
		for _, mode := range []EvalMode{EvalFull, EvalCached, EvalIncremental} {
			b.Run(fmt.Sprintf("%dSSets-%s", ssets, mode), func(b *testing.B) {
				const gens = 50
				var games int64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Simulate(context.Background(), SimulationConfig{
						NumSSets:      ssets,
						AgentsPerSSet: 4,
						MemorySteps:   1,
						Rounds:        DefaultRounds,
						PCRate:        1,
						MutationRate:  0.05,
						Beta:          1,
						Generations:   gens,
						Seed:          uint64(i + 1),
						EvalMode:      mode,
					})
					if err != nil {
						b.Fatal(err)
					}
					games += res.GamesPlayed
				}
				b.ReportMetric(float64(games)/float64(b.N)/gens, "games/gen")
			})
		}
	}
}

// BenchmarkEvalModesParallel runs the distributed engine's per-generation
// all-pairs workload under each evaluation mode at S in {32, 128, 512}
// SSets; this is where the incremental matrix collapses the O(S^2) games
// per generation the paper's implementation replays.
func BenchmarkEvalModesParallel(b *testing.B) {
	for _, ssets := range []int{32, 128, 512} {
		for _, mode := range []EvalMode{EvalFull, EvalCached, EvalIncremental} {
			b.Run(fmt.Sprintf("%dSSets-%s", ssets, mode), func(b *testing.B) {
				const gens = 3
				var games int64
				for i := 0; i < b.N; i++ {
					res, err := SimulateParallel(ParallelConfig{
						Ranks:             5,
						NumSSets:          ssets,
						AgentsPerSSet:     4,
						MemorySteps:       1,
						Rounds:            DefaultRounds,
						PCRate:            0.1,
						MutationRate:      0.05,
						Generations:       gens,
						Seed:              uint64(i + 1),
						OptimizationLevel: 3,
						EvalMode:          mode,
					})
					if err != nil {
						b.Fatal(err)
					}
					games += res.TotalGames
				}
				b.ReportMetric(float64(games)/float64(b.N)/gens, "games/gen")
			})
		}
	}
}

// BenchmarkKernelModesSerial runs the same noiseless full-evaluation
// workload through the facade with the cycle-closing kernel on and off; the
// gap is the closed-form evaluation of the periodic joint-state walk (the
// kernel table of BENCH_5.json measures the same axis on raw all-pairs
// sweeps).
func BenchmarkKernelModesSerial(b *testing.B) {
	for _, kernel := range []string{"full-replay", "auto"} {
		b.Run("kernel-"+kernel, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(context.Background(), SimulationConfig{
					NumSSets:      64,
					AgentsPerSSet: 4,
					MemorySteps:   1,
					Rounds:        DefaultRounds,
					PCRate:        1,
					MutationRate:  0.05,
					Beta:          1,
					Generations:   30,
					Seed:          uint64(i + 1),
					Kernel:        kernel,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairCacheHitPath pins the steady-state cost of the interned pair
// cache: an ID-pair lookup that must stay allocation-free (the companion
// AllocsPerRun gate lives in internal/fitness).
func BenchmarkPairCacheHitPath(b *testing.B) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: game.StateRolling, AccumMode: game.AccumLookup})
	if err != nil {
		b.Fatal(err)
	}
	cache, err := fitness.NewPairCache(eng)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]uint32, 16)
	for i, p := range strategy.AllMemoryOne() {
		if ids[i], err = cache.Interner().Intern(p); err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range ids {
		for _, o := range ids {
			if _, err := cache.PlayID(a, o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cache.PlayID(ids[i&15], ids[(i>>4)&15]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSSetVsBaseline compares one generation of the SSet-based
// engine against the traditional one-agent-per-strategy baseline on the same
// population (the decomposition the paper argues for in Section IV-A).
func BenchmarkAblationSSetVsBaseline(b *testing.B) {
	const agents = 64
	b.Run("sset-engine", func(b *testing.B) {
		m, err := population.New(population.Config{
			NumSSets:      agents,
			AgentsPerSSet: 1,
			MemorySteps:   1,
			Rounds:        DefaultRounds,
			PCRate:        1,
			MutationRate:  0.05,
			Seed:          1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traditional-baseline", func(b *testing.B) {
		m, err := baseline.New(baseline.Config{
			NumAgents:    agents,
			MemorySteps:  1,
			Rounds:       DefaultRounds,
			PCRate:       1,
			MutationRate: 0.05,
			Seed:         1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
