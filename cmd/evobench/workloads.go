package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"

	"evogame"
	"evogame/internal/dynamics"
	"evogame/internal/ensemble"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/topology"
)

// engineKind is the facade entry point a workload runs through.
type engineKind int

const (
	serialEngine   engineKind = iota // evogame.Simulate
	ensembleEngine                   // evogame.RunEnsemble on the serial engine
	parallelEngine                   // evogame.SimulateParallel
)

// workload is one fixed paper configuration.  Every run is one closed batch
// computation (no arrivals): a repeat simulates gens generations (per
// replicate for the ensemble) and is reported as throughput at that size.
type workload struct {
	name string
	why  string
	size string

	engine      engineKind
	ssets       int
	memory      int
	noise       float64
	pcRate      float64 // 0 keeps the paper's default 0.1
	mutation    float64 // 0 keeps the paper's default 0.05
	eval        evogame.EvalMode
	ranks       int // parallel: total ranks, Nature Agent included
	replicates  int // ensemble: replicates, run ensembleWorkers at a time
	workers     int // ensemble: replicates in flight
	samples     int // serial: abundance samples per run (SampleEvery = gens/samples)
	checkpoints int // parallel: periodic checkpoint saves per run

	// gens is the length of one repeat: 3 to 4.5 seconds on a 2-core Xeon.
	// Shorter repeats would let the seed's random dynamics move the work
	// done per generation.
	gens int
	// quickGens is the -quick length, about a hundredth of gens.
	quickGens int
	// oracleGens is the prefix the reference oracle checks.
	oracleGens int
}

// workloads is the benchmark's fixed set, in reporting order.
var workloads = []workload{
	{
		name:   "fig2-noisy",
		why:    "Figure 2 validation setting: noise bypasses the pair cache, so the noisy SWAR kernel and its per-lane RNG draws do the work",
		size:   "S=512 SSets x 4 agents, memory-1, noise 0.05, Fermi, PC rate 1, mutation 0.05, EvalFull, 1 worker",
		engine: serialEngine, ssets: 512, memory: 1, noise: 0.05, pcRate: 1, mutation: 0.05,
		eval: evogame.EvalFull, samples: 10,
		gens: 50000, quickGens: 500, oracleGens: 1000,
	},
	{
		name:   "fig6-replay-m6",
		why:    "Figure 6 memory-six full replay: 65,280 games per generation through the cycle-closing and rolling scalar kernels, no RNG, no cache",
		size:   "3 ranks (Nature + 2 SSet ranks), 1 worker per rank, opt level 3, S=256 x 4 agents, memory-6, noiseless, EvalFull",
		engine: parallelEngine, ssets: 256, memory: 6, ranks: 3,
		eval: evogame.EvalFull,
		gens: 50, quickGens: 1, oracleGens: 5,
	},
	{
		name:   "ensemble-m6",
		why:    "averaged-figure shape: shared-cache reads dominate by count and each miss falls back to the serial engine's scalar kernel",
		size:   "8 replicates, 2 in flight, serial engine, S=128 x 4 agents, memory-6, noiseless, EvalCached, PC rate 1, mutation 0.05, 1 worker",
		engine: ensembleEngine, ssets: 128, memory: 6, pcRate: 1, mutation: 0.05,
		eval: evogame.EvalCached, replicates: 8, workers: 2,
		gens: 8000, quickGens: 80, oracleGens: 160,
	},
	{
		name:   "incr-comm-ckpt",
		why:    "tiny per-generation compute, so mpi collectives dominate; mutation 0.2 makes fitness and intern write-heavy; 20 checkpoint saves",
		size:   "5 ranks, 1 worker per rank, opt level 3, S=64 x 4 agents, memory-6, noiseless, EvalIncremental, PC rate 1, mutation 0.2, 20 checkpoints",
		engine: parallelEngine, ssets: 64, memory: 6, pcRate: 1, mutation: 0.2, ranks: 5,
		eval: evogame.EvalIncremental, checkpoints: 20,
		gens: 80000, quickGens: 800, oracleGens: 1600,
	},
}

// lookupWorkload returns the workload with the given name.
func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// length returns the generations of one repeat.
func (w workload) length(quick bool) int {
	if quick {
		return w.quickGens
	}
	return w.gens
}

// lanes is the number of threads of work the workload keeps busy: one for
// the serial engine, the replicates in flight for the ensemble and the SSet
// ranks for the distributed engine.  Shares divide by wall time × lanes.
func (w workload) lanes() int {
	switch w.engine {
	case ensembleEngine:
		return w.workers
	case parallelEngine:
		return w.ranks - 1
	}
	return 1
}

// simulation is the serial-engine configuration of the workload (for the
// ensemble, of each replicate).
func (w workload) simulation(seed uint64, gens int) evogame.SimulationConfig {
	cfg := evogame.SimulationConfig{
		NumSSets:      w.ssets,
		AgentsPerSSet: 4,
		MemorySteps:   w.memory,
		Noise:         w.noise,
		PCRate:        w.pcRate,
		MutationRate:  w.mutation,
		Generations:   gens,
		Seed:          seed,
		EvalMode:      w.eval,
		Workers:       1,
	}
	if w.samples > 0 {
		cfg.SampleEvery = w.gens / w.samples
	}
	return cfg
}

// distributed is the distributed-engine configuration of the workload;
// checkpoints go to dir.
func (w workload) distributed(seed uint64, gens int, dir string) evogame.ParallelConfig {
	cfg := evogame.ParallelConfig{
		Ranks:             w.ranks,
		WorkersPerRank:    1,
		OptimizationLevel: int(parallel.OptFusedFitness),
		NumSSets:          w.ssets,
		AgentsPerSSet:     4,
		MemorySteps:       w.memory,
		Noise:             w.noise,
		PCRate:            w.pcRate,
		MutationRate:      w.mutation,
		Generations:       gens,
		Seed:              seed,
		EvalMode:          w.eval,
	}
	if w.checkpoints > 0 {
		cfg.CheckpointPath = filepath.Join(dir, w.name+".ckpt")
		cfg.CheckpointEvery = w.gens / w.checkpoints
	}
	return cfg
}

// ensembleConfig is the ensemble configuration of the workload.
func (w workload) ensembleConfig(seed uint64, gens int) evogame.EnsembleConfig {
	sim := w.simulation(seed, gens)
	return evogame.EnsembleConfig{Replicates: w.replicates, EnsembleWorkers: w.workers, Simulation: &sim}
}

// runSummary is the engine-independent outcome of one run (one replicate):
// everything the fingerprint covers.
type runSummary struct {
	strategies []string
	pcEvents   int
	adoptions  int
	mutations  int
	games      int64
	samples    []evogame.Sample
}

// outcome is the result of one facade call.
type outcome struct {
	gens int // generations simulated, summed over replicates
	runs []runSummary
}

// run executes the workload through the public facade.
func (w workload) run(ctx context.Context, seed uint64, gens int, dir string) (outcome, error) {
	switch w.engine {
	case serialEngine:
		res, err := evogame.Simulate(ctx, w.simulation(seed, gens))
		if err != nil {
			return outcome{}, err
		}
		return outcome{gens: gens, runs: []runSummary{serialSummary(res)}}, nil
	case ensembleEngine:
		res, err := evogame.RunEnsemble(ctx, w.ensembleConfig(seed, gens))
		if err != nil {
			return outcome{}, err
		}
		out := outcome{gens: gens * w.replicates}
		for _, r := range res.Serial {
			out.runs = append(out.runs, serialSummary(r))
		}
		return out, nil
	default:
		res, err := evogame.SimulateParallel(w.distributed(seed, gens, dir))
		if err != nil {
			return outcome{}, err
		}
		return outcome{gens: gens, runs: []runSummary{{
			strategies: res.FinalStrategies,
			pcEvents:   res.PCEvents,
			adoptions:  res.Adoptions,
			mutations:  res.Mutations,
			games:      res.TotalGames,
		}}}, nil
	}
}

func serialSummary(r evogame.SimulationResult) runSummary {
	return runSummary{
		strategies: r.FinalStrategies,
		pcEvents:   r.PCEvents,
		adoptions:  r.Adoptions,
		mutations:  r.Mutations,
		games:      r.GamesPlayed,
		samples:    r.Samples,
	}
}

// populationSummary maps an internal serial-engine result onto runSummary
// exactly as the facade maps it onto SimulationResult.
func populationSummary(r population.Result) runSummary {
	s := runSummary{
		pcEvents:  r.NatureStats.PCEvents,
		adoptions: r.NatureStats.Adoptions,
		mutations: r.NatureStats.Mutations,
		games:     r.TotalGamesPlayed,
	}
	for _, st := range r.FinalStrategies {
		s.strategies = append(s.strategies, st.String())
	}
	for _, a := range r.Samples {
		s.samples = append(s.samples, evogame.Sample{
			Generation:          a.Generation,
			DistinctStrategies:  a.Distinct,
			TopStrategy:         a.TopStrategy,
			TopFraction:         a.TopFraction,
			WSLSFraction:        a.WSLSFraction,
			TFTFraction:         a.TFTFraction,
			AllDFraction:        a.AllDFraction,
			MeanDefectingStates: a.MeanDefectingStates,
		})
	}
	return s
}

// parallelSummary maps an internal distributed-engine result onto
// runSummary.
func parallelSummary(r parallel.Result) runSummary {
	s := runSummary{
		pcEvents:  r.NatureStats.PCEvents,
		adoptions: r.NatureStats.Adoptions,
		mutations: r.NatureStats.Mutations,
		games:     r.TotalGames,
	}
	for _, st := range r.FinalStrategies {
		s.strategies = append(s.strategies, st.String())
	}
	return s
}

// fingerprint is FNV-64a over every run's final strategies, event counts,
// games played and sample rows.
func fingerprint(runs []runSummary) string {
	return hashRuns(runs, true)
}

// stateHash covers only what every engine and eval mode must agree on:
// final strategies and event counts (games played legitimately differ).
func stateHash(r runSummary) string {
	return hashRuns([]runSummary{r}, false)
}

func hashRuns(runs []runSummary, full bool) string {
	h := fnv.New64a()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		num(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, r := range runs {
		num(uint64(len(r.strategies)))
		for _, s := range r.strategies {
			str(s)
		}
		num(uint64(r.pcEvents))
		num(uint64(r.adoptions))
		num(uint64(r.mutations))
		if !full {
			continue
		}
		num(uint64(r.games))
		num(uint64(len(r.samples)))
		for _, s := range r.samples {
			num(uint64(s.Generation))
			num(uint64(s.DistinctStrategies))
			str(s.TopStrategy)
			for _, f := range []float64{s.TopFraction, s.WSLSFraction, s.TFTFraction, s.AllDFraction, s.MeanDefectingStates} {
				num(math.Float64bits(f))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// scenario resolves the paper's defaults (IPD, Fermi, well-mixed) exactly
// as the facade resolves empty names.
func scenario() (game.Spec, dynamics.Rule, topology.Spec, error) {
	spec, err := game.LookupSpec("ipd")
	if err != nil {
		return game.Spec{}, nil, topology.Spec{}, err
	}
	rule, err := dynamics.Lookup("fermi")
	if err != nil {
		return game.Spec{}, nil, topology.Spec{}, err
	}
	topo, err := topology.Parse("")
	return spec, rule, topo, err
}

// populationConfig builds the population.Config the facade builds for c;
// the traced run drives the serial engine through it directly.  The
// fingerprint check proves the two agree.
func populationConfig(c evogame.SimulationConfig) (population.Config, error) {
	spec, rule, topo, err := scenario()
	if err != nil {
		return population.Config{}, err
	}
	kernel, err := game.ParseKernelMode(c.Kernel)
	if err != nil {
		return population.Config{}, err
	}
	return population.Config{
		NumSSets:      c.NumSSets,
		AgentsPerSSet: c.AgentsPerSSet,
		MemorySteps:   c.MemorySteps,
		Rounds:        game.DefaultRounds,
		Noise:         c.Noise,
		Game:          spec,
		UpdateRule:    rule,
		Topology:      topo,
		PCRate:        c.PCRate,
		MutationRate:  c.MutationRate,
		Beta:          c.Beta,
		Seed:          c.Seed,
		SampleEvery:   c.SampleEvery,
		EvalMode:      fitness.EvalMode(c.EvalMode),
		Kernel:        kernel,
		Workers:       c.Workers,
	}, nil
}

// parallelConfig builds the parallel.Config the facade builds for c.
func parallelConfig(c evogame.ParallelConfig) (parallel.Config, error) {
	spec, rule, topo, err := scenario()
	if err != nil {
		return parallel.Config{}, err
	}
	kernel, err := game.ParseKernelMode(c.Kernel)
	if err != nil {
		return parallel.Config{}, err
	}
	return parallel.Config{
		Ranks:           c.Ranks,
		WorkersPerRank:  c.WorkersPerRank,
		EvalMode:        fitness.EvalMode(c.EvalMode),
		Kernel:          kernel,
		Game:            spec,
		UpdateRule:      rule,
		Topology:        topo,
		NumSSets:        c.NumSSets,
		AgentsPerSSet:   c.AgentsPerSSet,
		MemorySteps:     c.MemorySteps,
		Rounds:          game.DefaultRounds,
		Noise:           c.Noise,
		PCRate:          c.PCRate,
		MutationRate:    c.MutationRate,
		Beta:            c.Beta,
		Generations:     c.Generations,
		Seed:            c.Seed,
		OptLevel:        parallel.OptLevel(c.OptimizationLevel),
		CheckpointPath:  c.CheckpointPath,
		CheckpointEvery: c.CheckpointEvery,
	}, nil
}

// engineConfig is the exact game.EngineConfig the workload's engine plays
// with: the serial engine keeps population.Config's zero state and
// accumulation modes, the distributed engine at optimization level 3 uses
// the rolling state code and the fused look-up table.
func (w workload) engineConfig() game.EngineConfig {
	cfg := game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: w.memory, Noise: w.noise}
	if w.engine == parallelEngine {
		cfg.StateMode = game.StateRolling
		cfg.AccumMode = game.AccumLookup
	}
	return cfg
}

// oracle checks a short prefix of the workload against an independent path
// on the same seed:
//   - fig2-noisy: the round-by-round reference kernel against the default;
//   - the distributed workloads: the serial engine with EvalCached against
//     the distributed engine (the noiseless cross-engine clause of the
//     determinism contract);
//   - ensemble-m6: the first and last replicate against a solo EvalFull run
//     of the replicate's seed.
func (w workload) oracle(ctx context.Context, seed uint64, gens int, dir string) error {
	n := min(w.oracleGens, gens)
	switch w.engine {
	case serialEngine:
		auto := w.simulation(seed, n)
		ref := auto
		ref.Kernel = "full-replay"
		a, err := evogame.Simulate(ctx, auto)
		if err != nil {
			return err
		}
		b, err := evogame.Simulate(ctx, ref)
		if err != nil {
			return err
		}
		if fa, fb := fingerprint([]runSummary{serialSummary(a)}), fingerprint([]runSummary{serialSummary(b)}); fa != fb {
			return fmt.Errorf("%d generations: default kernel fingerprint %s, full-replay %s", n, fa, fb)
		}
	case parallelEngine:
		p, err := w.run(ctx, seed, n, dir)
		if err != nil {
			return err
		}
		sim := w.simulation(seed, n)
		sim.EvalMode = evogame.EvalCached
		s, err := evogame.Simulate(ctx, sim)
		if err != nil {
			return err
		}
		if hp, hs := stateHash(p.runs[0]), stateHash(serialSummary(s)); hp != hs {
			return fmt.Errorf("%d generations: distributed state %s, serial %s", n, hp, hs)
		}
	case ensembleEngine:
		e, err := w.run(ctx, seed, n, dir)
		if err != nil {
			return err
		}
		for _, k := range []int{0, w.replicates - 1} {
			sim := w.simulation(ensemble.ReplicateSeed(seed, k), n)
			sim.EvalMode = evogame.EvalFull
			s, err := evogame.Simulate(ctx, sim)
			if err != nil {
				return err
			}
			if he, hs := stateHash(e.runs[k]), stateHash(serialSummary(s)); he != hs {
				return fmt.Errorf("%d generations: replicate %d state %s, solo EvalFull %s", n, k, he, hs)
			}
		}
	}
	return nil
}
