// Command evogame runs an evolutionary game dynamics simulation from the
// command line, using either the serial reference engine or the distributed
// (goroutine-rank) engine that reproduces the paper's MPI/OpenMP
// decomposition.
//
// Examples:
//
//	evogame -ssets 256 -memory 1 -generations 50000 -noise 0.05
//	evogame -parallel -ranks 9 -ssets 256 -memory 6 -generations 100
//	evogame -ssets 128 -generations 20000 -ckpt-every 5000 -checkpoint run.ckpt
//	evogame -resume run.ckpt -generations 20000 -checkpoint run.ckpt
//	evogame -resume run.ckpt -generations 20000 -max-restarts 3 -fault-spec crash@30000:r0
//	evogame -game snowdrift -rule moran -ssets 128 -noise 0 -eval incremental
//	evogame -game generic -payoff 5,1,6,2 -generations 10000
//	evogame -topology torus:moore -ssets 256 -noise 0 -generations 50000
//	evogame -topology smallworld:6:0.2 -ssets 512 -eval incremental
//	evogame -replicates 8 -ensemble-workers 4 -ssets 128 -noise 0 -eval cached
//	evogame -parallel -ranks 5 -generations 100 -fault-spec crash@40:r1 -max-restarts 3 -segment-every 20
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"evogame"

	"evogame/internal/checkpoint"
	"evogame/internal/stats"
)

func main() {
	var (
		useParallel = flag.Bool("parallel", false, "use the distributed engine (goroutine ranks)")
		ranks       = flag.Int("ranks", 5, "total ranks for the distributed engine (Nature + SSet ranks)")
		workers     = flag.Int("workers", 0, "worker goroutines for game play per rank of the distributed engine (0 = GOMAXPROCS); the serial engine plays on one goroutine and ignores it")
		optLevel    = flag.Int("opt", 3, "optimization level 0..3 (Figure 3)")

		ssets       = flag.Int("ssets", 128, "number of Strategy Sets")
		agents      = flag.Int("agents", 4, "agents per Strategy Set (must be >= 1; read by no engine, so it changes no result)")
		memory      = flag.Int("memory", 1, "memory steps (1..6)")
		rounds      = flag.Int("rounds", evogame.DefaultRounds, "IPD rounds per game")
		noise       = flag.Float64("noise", 0.05, "per-move error probability")
		pcRate      = flag.Float64("pc-rate", 0.1, "pairwise comparison rate per generation")
		muRate      = flag.Float64("mutation-rate", 0.05, "mutation rate per generation")
		beta        = flag.Float64("beta", 1.0, "Fermi selection intensity")
		generations = flag.Int("generations", 10000, "generations to simulate")
		seed        = flag.Uint64("seed", 2013, "random seed")
		sampleEvery = flag.Int("sample-every", 0, "record an abundance sample every N generations (0 = final only)")
		ckptPath    = flag.String("checkpoint", "", "write a resumable checkpoint of the final population to this file")
		ckptEvery   = flag.Int("ckpt-every", 0, "also write a mid-run checkpoint to the -checkpoint file every N generations (0 = final only)")
		resumePath  = flag.String("resume", "", "resume a run from this checkpoint file; -generations counts additional generations and the recorded seed/population/scenario replace the corresponding flags")
		clusters    = flag.Int("clusters", 0, "cluster the final population into K groups (0 = skip)")
		evalName    = flag.String("eval", "full", "fitness evaluation mode: full, cached or incremental (noiseless runs only; noisy runs fall back to full)")
		gameName    = flag.String("game", "ipd", "game scenario: "+strings.Join(evogame.Games(), ", "))
		ruleName    = flag.String("rule", "fermi", "update rule: "+strings.Join(evogame.UpdateRules(), ", "))
		payoffCSV   = flag.String("payoff", "", "payoff override as R,S,T,P (must satisfy the scenario's constraints)")
		topoName    = flag.String("topology", "wellmixed", "interaction topology: wellmixed, ring[:degree], torus[:vonneumann|moore], smallworld[:degree[:rewire-prob]]")
		kernelName  = flag.String("kernel", "auto", "deterministic-game kernel: "+strings.Join(evogame.KernelModes(), ", ")+" (bit-identical; auto closes joint-state cycles in closed form)")

		replicates    = flag.Int("replicates", 1, "run this many independent replicates with derived seeds through the ensemble engine (1 = single run)")
		ensWorkers    = flag.Int("ensemble-workers", 0, "replicates in flight at once (0 = min(replicates, GOMAXPROCS); splits GOMAXPROCS with per-run -workers)")
		privateCaches = flag.Bool("private-caches", false, "give every replicate its own pair cache instead of sharing one store across the ensemble")

		faultSpec    = flag.String("fault-spec", "", "deterministic fault-injection plan, e.g. crash@40:r1 or drop@10:r2:x3 or rand:3 (see docs/FAULT_TOLERANCE.md; events derive from -seed)")
		maxRestarts  = flag.Int("max-restarts", 0, "recover transiently-failed runs from checkpoints up to this many times (0 = no recovery; recovered runs are bit-identical to fault-free ones)")
		segmentEvery = flag.Int("segment-every", 0, "supervisor checkpoint cadence in generations (0 = keep -ckpt-every; only with -max-restarts)")
	)
	flag.Parse()

	evalMode, err := evogame.ParseEvalMode(*evalName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evogame:", err)
		os.Exit(1)
	}
	payoff, err := parsePayoff(*payoffCSV)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evogame:", err)
		os.Exit(1)
	}
	if err := run(runOptions{
		parallel: *useParallel, ranks: *ranks, workers: *workers, optLevel: *optLevel,
		ssets: *ssets, agents: *agents, memory: *memory, rounds: *rounds, noise: *noise,
		pcRate: *pcRate, muRate: *muRate, beta: *beta, generations: *generations,
		seed: *seed, sampleEvery: *sampleEvery, ckptPath: *ckptPath, ckptEvery: *ckptEvery,
		resumePath: *resumePath, clusters: *clusters,
		evalMode: evalMode, game: *gameName, rule: *ruleName, payoff: payoff,
		topology: *topoName, kernel: *kernelName,
		replicates: *replicates, ensWorkers: *ensWorkers, privateCaches: *privateCaches,
		faultSpec: *faultSpec, maxRestarts: *maxRestarts, segmentEvery: *segmentEvery,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "evogame:", err)
		os.Exit(1)
	}
}

// parsePayoff parses the -payoff flag's "R,S,T,P" value; an empty string
// means "use the scenario's canonical payoff".
func parsePayoff(csv string) ([]float64, error) {
	if csv == "" {
		return nil, nil
	}
	parts := strings.Split(csv, ",")
	if len(parts) != 4 {
		return nil, fmt.Errorf("-payoff wants 4 comma-separated values R,S,T,P, got %q", csv)
	}
	out := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-payoff value %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

type runOptions struct {
	parallel                    bool
	ranks, workers, optLevel    int
	ssets, agents, memory       int
	rounds                      int
	noise, pcRate, muRate, beta float64
	generations                 int
	seed                        uint64
	sampleEvery                 int
	ckptPath                    string
	ckptEvery                   int
	resumePath                  string
	clusters                    int
	evalMode                    evogame.EvalMode
	game, rule                  string
	payoff                      []float64
	topology                    string
	kernel                      string
	replicates, ensWorkers      int
	privateCaches               bool
	faultSpec                   string
	maxRestarts, segmentEvery   int
}

// adoptCheckpointIdentity replaces the identity-bearing options with the
// values the checkpoint records, so a resume needs no flag archaeology:
// seed, population size, memory depth, game, payoff, update rule and
// topology all come from the file.  Parameters a checkpoint does not record
// (noise, rounds, rates, engine selection) keep their flag values and must
// match the original run for a bit-identical continuation.
func (o *runOptions) adoptCheckpointIdentity(snap checkpoint.Snapshot) {
	o.seed = snap.Seed
	o.ssets = len(snap.Strategies)
	o.memory = snap.MemorySteps
	o.game = snap.Game
	o.rule = snap.UpdateRule
	o.topology = snap.Topology
	o.payoff = append([]float64(nil), snap.Payoff[:]...)
}

// checkpointLabel names the CLI's single runs in their checkpoints.
const checkpointLabel = "evogame CLI run"

// simulationConfig is the serial engine's configuration from the flags,
// shared by a single run and an ensemble's replicates.
func (o runOptions) simulationConfig() evogame.SimulationConfig {
	return evogame.SimulationConfig{
		NumSSets: o.ssets, AgentsPerSSet: o.agents, MemorySteps: o.memory,
		Rounds: o.rounds, Noise: o.noise, PCRate: o.pcRate, MutationRate: o.muRate,
		Beta: o.beta, Generations: o.generations, Seed: o.seed, SampleEvery: o.sampleEvery,
		EvalMode: o.evalMode, Kernel: o.kernel, Workers: o.workers,
		Game: o.game, Payoff: o.payoff, UpdateRule: o.rule, Topology: o.topology,
	}
}

// parallelConfig is the distributed engine's configuration from the flags,
// shared by a single run and an ensemble's replicates.
func (o runOptions) parallelConfig() evogame.ParallelConfig {
	return evogame.ParallelConfig{
		Ranks: o.ranks, WorkersPerRank: o.workers, OptimizationLevel: o.optLevel,
		NumSSets: o.ssets, AgentsPerSSet: o.agents, MemorySteps: o.memory,
		Rounds: o.rounds, Noise: o.noise, PCRate: o.pcRate, MutationRate: o.muRate,
		Beta: o.beta, Generations: o.generations, Seed: o.seed, EvalMode: o.evalMode,
		Kernel: o.kernel,
		Game:   o.game, Payoff: o.payoff, UpdateRule: o.rule, Topology: o.topology,
	}
}

func run(o runOptions) error {
	//lint:allow randsource wall-clock elapsed time for the CLI summary line; never feeds simulation state
	start := time.Now()
	var finalStrategies []string

	if o.ckptEvery > 0 && o.ckptPath == "" {
		return fmt.Errorf("-ckpt-every requires -checkpoint")
	}
	if o.replicates != 1 {
		if o.replicates < 1 {
			return fmt.Errorf("-replicates must be at least 1, got %d", o.replicates)
		}
		if o.resumePath != "" || o.ckptPath != "" {
			return fmt.Errorf("-replicates runs an ensemble; checkpoint/resume are per-run, so run seeds individually to use them")
		}
		return runEnsemble(o)
	}
	if o.resumePath != "" {
		snap, err := checkpoint.Load(o.resumePath)
		if err != nil {
			return err
		}
		o.adoptCheckpointIdentity(snap)
		kind := "resumable"
		if !snap.Resume {
			kind = "final-only (warm start)"
		}
		fmt.Printf("resuming %s checkpoint %s: generation %d, %d SSets, memory-%d, game %s, rule %s, topology %s\n",
			kind, o.resumePath, snap.Generation, o.ssets, o.memory, o.game, o.rule, o.topology)
	}

	topo, err := evogame.DescribeTopology(o.topology)
	if err != nil {
		return err
	}

	if o.parallel {
		cfg := o.parallelConfig()
		cfg.CheckpointPath, cfg.CheckpointEvery, cfg.CheckpointLabel = o.ckptPath, o.ckptEvery, checkpointLabel
		cfg.FaultPlan, cfg.MaxRestarts, cfg.SegmentEvery = o.faultSpec, o.maxRestarts, o.segmentEvery
		var res evogame.ParallelResult
		if o.resumePath != "" {
			res, err = evogame.ResumeParallelSimulation(o.resumePath, cfg)
		} else {
			res, err = evogame.SimulateParallel(cfg)
		}
		if err != nil {
			return err
		}
		finalStrategies = res.FinalStrategies
		fmt.Printf("distributed run: %d generations, %d ranks, %d SSets, memory-%d, game %s, rule %s, topology %s\n",
			res.Generations, o.ranks, o.ssets, o.memory, o.game, o.rule, topo.Canonical)
		fmt.Printf("wallclock %.2fs  mean rank compute %.2fs  mean rank comm %.2fs  games %d\n",
			res.WallClockSeconds, res.ComputeSeconds, res.CommSeconds, res.TotalGames)
		fmt.Printf("events: %d pairwise comparisons, %d adoptions, %d mutations\n",
			res.PCEvents, res.Adoptions, res.Mutations)
		printFaultSummary(res.Metrics)
		t := stats.NewTable("Rank", "Local SSets", "Games", "Compute (s)", "Comm (s)", "Msgs sent")
		for _, r := range res.Ranks {
			t.AddRow(r.Rank, r.LocalSSets, r.GamesPlayed, r.ComputeSeconds, r.CommSeconds, r.MessagesSent)
		}
		fmt.Print(t.String())
	} else {
		cfg := o.simulationConfig()
		cfg.CheckpointPath, cfg.CheckpointEvery, cfg.CheckpointLabel = o.ckptPath, o.ckptEvery, checkpointLabel
		cfg.FaultPlan, cfg.MaxRestarts, cfg.SegmentEvery = o.faultSpec, o.maxRestarts, o.segmentEvery
		var res evogame.SimulationResult
		if o.resumePath != "" {
			res, err = evogame.ResumeSimulation(context.Background(), o.resumePath, cfg)
		} else {
			res, err = evogame.Simulate(context.Background(), cfg)
		}
		if err != nil {
			return err
		}
		finalStrategies = res.FinalStrategies
		fmt.Printf("serial run: %d generations, %d SSets x %d agents, memory-%d, game %s, rule %s, topology %s (%.2fs)\n",
			res.Generations, o.ssets, o.agents, o.memory, o.game, o.rule, topo.Canonical, time.Since(start).Seconds())
		fmt.Printf("events: %d pairwise comparisons, %d adoptions, %d mutations, %d games\n",
			res.PCEvents, res.Adoptions, res.Mutations, res.GamesPlayed)
		printFaultSummary(res.Metrics)
		t := stats.NewTable("Generation", "Distinct", "Top strategy", "Top %", "WSLS %", "ALLD %")
		for _, s := range res.Samples {
			t.AddRow(s.Generation, s.DistinctStrategies, s.TopStrategy, 100*s.TopFraction, 100*s.WSLSFraction, 100*s.AllDFraction)
		}
		fmt.Print(t.String())
	}

	if o.clusters > 0 {
		groups, err := evogame.ClusterStrategies(finalStrategies, o.clusters, o.seed)
		if err != nil {
			return err
		}
		fmt.Printf("\nk-means clusters (k=%d):\n", o.clusters)
		ct := stats.NewTable("Cluster", "Size", "Fraction", "Representative")
		for i, c := range groups {
			ct.AddRow(i, c.Size, c.Fraction, c.Representative)
		}
		fmt.Print(ct.String())
	}

	// The engines write the checkpoint themselves: the typed strategy table
	// (pure move tables, which -resume checks entry by entry), the
	// generation counter actually reached, and the RNG stream states that
	// make -resume bit-identical.
	if o.ckptPath != "" {
		fmt.Printf("\ncheckpoint written to %s\n", o.ckptPath)
	}
	return nil
}

// printFaultSummary prints the fault-tolerance counters when the run saw
// any injected faults or supervised recovery; fault-free runs print nothing.
func printFaultSummary(m evogame.Metrics) {
	if m.Restarts == 0 && m.RetriedSends == 0 && m.DroppedMessages == 0 && m.DelayedMessages == 0 {
		return
	}
	fmt.Printf("faults: %d supervised restarts, %d retried sends, %d dropped, %d delayed messages (recovery %.3fs)\n",
		m.Restarts, m.RetriedSends, m.DroppedMessages, m.DelayedMessages, float64(m.RecoveryNanos)/1e9)
}

// runEnsemble runs -replicates independent replicates through the ensemble
// engine and prints per-replicate summaries plus the deterministic
// aggregates (mean ± std cooperation trajectory, merged metrics).
func runEnsemble(o runOptions) error {
	topo, err := evogame.DescribeTopology(o.topology)
	if err != nil {
		return err
	}
	ecfg := evogame.EnsembleConfig{
		Replicates:      o.replicates,
		EnsembleWorkers: o.ensWorkers,
		PrivateCaches:   o.privateCaches,
		FaultPlan:       o.faultSpec,
		MaxRestarts:     o.maxRestarts,
		SegmentEvery:    o.segmentEvery,
	}
	if o.parallel {
		cfg := o.parallelConfig()
		ecfg.Parallel = &cfg
	} else {
		cfg := o.simulationConfig()
		ecfg.Simulation = &cfg
	}
	res, err := evogame.RunEnsemble(context.Background(), ecfg)
	if err != nil {
		return err
	}
	engine := "serial"
	if o.parallel {
		engine = "distributed"
	}
	cache := "shared"
	if o.privateCaches {
		cache = "private"
	}
	fmt.Printf("ensemble: %d replicates (%s engine, %d ensemble workers x %d run workers, %s caches), %d SSets, memory-%d, game %s, rule %s, topology %s (%.2fs)\n",
		o.replicates, engine, res.EnsembleWorkers, res.RunWorkers, cache,
		o.ssets, o.memory, o.game, o.rule, topo.Canonical, res.WallClockSeconds)

	t := stats.NewTable("Replicate", "Seed", "PC events", "Adoptions", "Mutations", "WSLS %")
	for k := range res.Seeds {
		switch {
		case res.Serial != nil:
			r := res.Serial[k]
			t.AddRow(k, res.Seeds[k], r.PCEvents, r.Adoptions, r.Mutations, 100*r.WSLSFraction())
		case res.Parallel != nil:
			r := res.Parallel[k]
			t.AddRow(k, res.Seeds[k], r.PCEvents, r.Adoptions, r.Mutations, "-")
		}
	}
	fmt.Print(t.String())

	if len(res.Trajectory) > 0 {
		fmt.Println("\naggregate trajectory (mean ± std over replicates):")
		tt := stats.NewTable("Generation", "Cooperation", "±", "WSLS", "±")
		for _, p := range res.Trajectory {
			tt.AddRow(p.Generation, p.CooperationMean, p.CooperationStd, p.WSLSMean, p.WSLSStd)
		}
		fmt.Print(tt.String())
	}
	m := res.Metrics
	fmt.Printf("\nmerged metrics: %d cache hits, %d misses, %d bypassed, %d games executed\n",
		m.CacheHits, m.CacheMisses, m.CacheBypassed, m.ScalarGames+m.CycleGames+m.BatchGames+m.VectorGames)
	printFaultSummary(m)
	for k, rerr := range res.Errors {
		if rerr != nil {
			fmt.Printf("replicate %d failed permanently: %v\n", k, rerr)
		}
	}
	return nil
}
