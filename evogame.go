// Package evogame is the public interface of the evolutionary game dynamics
// framework reproduced from "Massively Parallel Model of Extended Memory Use
// in Evolutionary Game Dynamics" (Randles et al., IPDPS 2013).
//
// The framework simulates a population of Strategy Sets (groups of agents
// sharing one repeated-game strategy with one to six rounds of memory)
// evolving under a pluggable update rule and random mutation.  The paper's
// scenario — the Iterated Prisoner's Dilemma with pairwise-comparison Fermi
// learning in a well-mixed population — is the default entry of three
// registries: Games() lists the playable scenarios (IPD, Snowdrift, Stag
// Hunt, generic 2x2), UpdateRules() the adoption rules (Fermi, imitation,
// Moran death-birth) and Topologies() the interaction graphs (well-mixed,
// ring, torus, small-world), selected through SimulationConfig.Game /
// .UpdateRule / .Topology.  Two engines are provided behind this facade:
//
//   - Simulate runs the serial reference engine, suitable for scientific
//     studies such as the Win-Stay Lose-Shift emergence validation.
//   - SimulateParallel runs the distributed engine: rank 0 is the Nature
//     Agent and the remaining ranks own blocks of Strategy Sets, with game
//     play fanned across worker goroutines inside each rank, mirroring the
//     paper's MPI/OpenMP decomposition on an in-process message-passing
//     runtime.
//
// Strategies cross the API boundary as move-table strings ("0110" is
// memory-one Win-Stay Lose-Shift; one character per game state, '0' =
// cooperate, '1' = defect), so callers never depend on internal types.
// Scaling predictions for Blue Gene/P and Blue Gene/Q class machines are
// available through PredictStrongScaling, PredictWeakScaling, RatioTable and
// MemorySweep.
package evogame

import (
	"context"
	"fmt"
	"time"

	"evogame/internal/artifact"
	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/kmeans"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/strategy"
	"evogame/internal/supervise"
	"evogame/internal/topology"
)

// Version is the library version.
const Version = "1.0.0"

// DefaultRounds is the number of IPD rounds per game used in the paper.
const DefaultRounds = game.DefaultRounds

// MaxMemorySteps is the largest supported strategy memory depth.
const MaxMemorySteps = game.MaxMemorySteps

// EvalMode selects how the engines evaluate Strategy-Set fitness; it is the
// knob over the shared incremental-fitness subsystem.
//
// The engines evolve pure move tables, so a noiseless game is a pure
// function of the strategy pair and its result can be reused instead of
// replayed.  All three modes produce bit-identical results for identical
// seeds: with Noise > 0 the cached modes transparently fall back to the
// full evaluation path.
type EvalMode int

const (
	// EvalFull replays every game of every evaluation, exactly as the
	// paper's implementation does.  This is the default and the workload
	// the scaling studies measure.
	EvalFull EvalMode = iota
	// EvalCached memoizes each distinct strategy pair's game result across
	// generations, so every distinct pair is played at most once per run
	// (the distributed engine's SSet ranks share one store per run).
	EvalCached
	// EvalIncremental additionally maintains per-SSet fitness sums across
	// generations, invalidating only the row/column of the SSet whose
	// strategy changed; generations without strategy changes replay
	// nothing.
	EvalIncremental
)

// String implements fmt.Stringer.
func (m EvalMode) String() string { return fitness.EvalMode(m).String() }

// ParseEvalMode maps "full", "cached" or "incremental" to an EvalMode.
func ParseEvalMode(s string) (EvalMode, error) {
	m, err := fitness.ParseEvalMode(s)
	return EvalMode(m), err
}

func (m EvalMode) toInternal() (fitness.EvalMode, error) {
	im := fitness.EvalMode(m)
	if !im.Valid() {
		return fitness.EvalFull, fmt.Errorf("evogame: invalid eval mode %d", int(m))
	}
	return im, nil
}

// KernelModes returns the names accepted by SimulationConfig.Kernel and
// ParallelConfig.Kernel ("auto", "full-replay", "batch").
func KernelModes() []string { return []string{"auto", "full-replay", "batch"} }

// Games returns the names of the registered game scenarios ("ipd",
// "snowdrift", "staghunt", "generic", plus any registered extensions).
// Every scenario works in both engines and under every EvalMode.
func Games() []string { return game.SpecNames() }

// UpdateRules returns the names of the registered update rules ("fermi",
// "imitation", "moran", plus any registered extensions).
func UpdateRules() []string { return dynamics.Names() }

// Topologies returns the names of the registered interaction topologies
// ("wellmixed", "ring", "torus", "smallworld", plus any registered
// extensions).  Every topology works in both engines and under every
// EvalMode.
func Topologies() []string { return topology.Names() }

// TopologyInfo describes one registered interaction-topology family.
type TopologyInfo struct {
	// Name is the registry key accepted (with optional parameters) by
	// SimulationConfig.Topology.
	Name string
	// Title is a short human description.
	Title string
	// Syntax is the parameterized selection syntax Parse accepts, for
	// example "ring[:degree]".
	Syntax string
	// Canonical is the fully resolved spec string with the family's default
	// parameters filled in, for example "ring:4"; it is the identity
	// recorded in checkpoints.
	Canonical string
}

// DescribeTopology resolves a topology selection — a registry name with
// optional parameters, such as "ring", "ring:8" or "smallworld:6:0.2" —
// and returns its description.
func DescribeTopology(sel string) (TopologyInfo, error) {
	spec, err := topology.Parse(sel)
	if err != nil {
		return TopologyInfo{}, fmt.Errorf("evogame: %w", err)
	}
	return TopologyInfo{
		Name:      spec.Name,
		Title:     spec.Title,
		Syntax:    topology.Syntax(spec.Name),
		Canonical: spec.String(),
	}, nil
}

// TopologyNeighbors builds the named topology over n SSets with the given
// seed — exactly the graph a simulation with the same Topology, NumSSets
// and Seed runs on — and returns each SSet's neighbor list in ascending
// order.  Analysis tooling uses it to relate final strategy tables to the
// interaction structure (see examples/lattice_cooperation).
func TopologyNeighbors(sel string, n int, seed uint64) ([][]int, error) {
	spec, err := topology.Parse(sel)
	if err != nil {
		return nil, fmt.Errorf("evogame: %w", err)
	}
	g, err := spec.Build(n, seed)
	if err != nil {
		return nil, fmt.Errorf("evogame: %w", err)
	}
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		out[i] = topology.Neighbors(g, i)
	}
	return out, nil
}

// GameInfo describes one registered scenario.
type GameInfo struct {
	// Name is the registry key accepted by SimulationConfig.Game.
	Name string
	// Title is a short human description.
	Title string
	// Payoff holds the canonical payoff values as [R, S, T, P].
	Payoff [4]float64
}

// DescribeGame returns the registered scenario with the given name.
func DescribeGame(name string) (GameInfo, error) {
	spec, err := game.LookupSpec(name)
	if err != nil {
		return GameInfo{}, err
	}
	return GameInfo{
		Name:   spec.Name,
		Title:  spec.Title,
		Payoff: spec.Payoff.Table(),
	}, nil
}

// resolveScenario maps the facade's scenario knobs — a game name, an
// optional [R, S, T, P] payoff override and an update-rule name — onto the
// internal spec and rule values shared by both engines.  Empty strings
// select the paper's defaults (IPD, Fermi).
func resolveScenario(gameName string, payoff []float64, ruleName string) (game.Spec, dynamics.Rule, error) {
	if gameName == "" {
		gameName = "ipd"
	}
	spec, err := game.LookupSpec(gameName)
	if err != nil {
		return game.Spec{}, nil, fmt.Errorf("evogame: %w", err)
	}
	if len(payoff) > 0 {
		if len(payoff) != 4 {
			return game.Spec{}, nil, fmt.Errorf("evogame: payoff override needs 4 values [R,S,T,P], got %d", len(payoff))
		}
		spec, err = spec.WithPayoff(game.Matrix{
			Reward: payoff[0], Sucker: payoff[1], Temptation: payoff[2], Punishment: payoff[3],
		})
		if err != nil {
			return game.Spec{}, nil, fmt.Errorf("evogame: %w", err)
		}
	}
	if ruleName == "" {
		ruleName = "fermi"
	}
	rule, err := dynamics.Lookup(ruleName)
	if err != nil {
		return game.Spec{}, nil, fmt.Errorf("evogame: %w", err)
	}
	return spec, rule, nil
}

// SimulationConfig configures the serial reference engine.
type SimulationConfig struct {
	// NumSSets is the number of Strategy Sets (>= 2).
	NumSSets int
	// AgentsPerSSet is the number of agents per Strategy Set (>= 1).  It is
	// validated but read by no engine, so it changes no result.
	AgentsPerSSet int
	// MemorySteps is the strategy memory depth, 1..6.
	MemorySteps int
	// Rounds is the number of IPD rounds per game; 0 selects the paper's 200.
	Rounds int
	// Noise is the per-move execution-error probability.
	Noise float64
	// PCRate is the per-generation pairwise-comparison probability; 0 selects
	// the paper's 0.1, a negative value disables learning.
	PCRate float64
	// MutationRate is the per-generation mutation probability; 0 selects the
	// paper's 0.05, a negative value disables mutation.
	MutationRate float64
	// Beta is the Fermi selection intensity; 0 selects 1.0.
	Beta float64
	// Generations is the number of generations to simulate.
	Generations int
	// Seed makes runs reproducible.
	Seed uint64
	// InitialStrategies optionally fixes each SSet's starting strategy as a
	// move-table string; when empty, strategies are drawn uniformly at
	// random.
	InitialStrategies []string
	// SampleEvery records an abundance sample every this many generations
	// (0 disables periodic sampling; the final state is always sampled).
	SampleEvery int
	// EvalMode selects full, cached or incremental fitness evaluation; all
	// modes produce identical results for identical seeds.
	EvalMode EvalMode
	// Kernel selects the deterministic-game inner loop: "" or "auto"
	// (default) closes the periodic joint-state trajectory of a noiseless
	// deterministic game in closed form whenever that is bit-exact,
	// "full-replay" forces the round-by-round reference loop, and "batch"
	// forces the bit-sliced 64-lane SWAR kernel at every memory depth when
	// games are evaluated in batches.  All kernel modes produce identical
	// results for identical seeds; see docs/PERFORMANCE.md.
	Kernel string
	// Workers is validated (negative values are rejected) but bounds
	// nothing: the serial engine evaluates fitness on the calling goroutine
	// in every mode and never fans game play out to workers.
	Workers int
	// Game names the scenario to play; empty selects "ipd", the paper's
	// Iterated Prisoner's Dilemma.  See Games() for the registry.
	Game string
	// Payoff optionally overrides the scenario's canonical payoff values as
	// [R, S, T, P]; the override must satisfy the scenario's constraints.
	Payoff []float64
	// UpdateRule names the adoption rule; empty selects "fermi", the
	// paper's pairwise-comparison process.  See UpdateRules() for the
	// registry.
	UpdateRule string
	// Topology names the interaction graph restricting which SSets meet in
	// game play and learning, with optional colon-separated parameters
	// ("ring:8", "torus:moore", "smallworld:6:0.2").  Empty selects
	// "wellmixed", the paper's model, which is bit-identical per seed to
	// the pre-topology engines.  See Topologies() for the registry and
	// DescribeTopology for the per-family parameter syntax.
	Topology string
	// CheckpointPath, when non-empty, makes the run write a resumable
	// checkpoint of its final state to this file; combined with
	// CheckpointEvery it also receives periodic mid-run checkpoints.
	// ResumeSimulation continues a run from such a file bit-identically.
	CheckpointPath string
	// CheckpointEvery writes a mid-run checkpoint to CheckpointPath every
	// this many generations (0 = final state only).  Each write atomically
	// replaces the previous one, so an interrupted run can always be
	// resumed from the last completed checkpoint.
	CheckpointEvery int
	// CheckpointLabel is free-form metadata recorded in the checkpoint.
	CheckpointLabel string
	// FaultPlan, when non-empty, arms a deterministic fault-injection plan
	// in the spec grammar of docs/FAULT_TOLERANCE.md — for example
	// "crash@40:r0" (rank 0 dies at generation 40) or "rand:3" (three
	// seed-derived events).  A given (plan, seed) pair replays identically.
	// The serial engine is the fault model's rank 0, so only crash events
	// targeting rank 0 apply here; drops and delays never fire.
	FaultPlan string
	// MaxRestarts, when positive, runs the simulation under the supervisor:
	// a transient failure (an injected fault) is recovered from the newest
	// checkpoint segment up to MaxRestarts times, and the recovered run is
	// bit-identical to a fault-free one.  Zero disables recovery — the
	// first failure is final.
	MaxRestarts int
	// SegmentEvery is the supervisor's checkpoint cadence in generations;
	// zero keeps CheckpointEvery.  Only meaningful with MaxRestarts > 0.
	SegmentEvery int
}

// Sample is one abundance observation of the population.
type Sample struct {
	Generation          int
	DistinctStrategies  int
	TopStrategy         string
	TopFraction         float64
	WSLSFraction        float64
	TFTFraction         float64
	AllDFraction        float64
	MeanDefectingStates float64
}

// SimulationResult is the outcome of Simulate.
type SimulationResult struct {
	Generations     int
	FinalStrategies []string
	Samples         []Sample
	// PCEvents, Adoptions and Mutations count the evolutionary events that
	// occurred.
	PCEvents  int
	Adoptions int
	Mutations int
	// GamesPlayed is the number of two-player IPD games executed.
	GamesPlayed int64
	// Metrics is the run's flat observability export: pair-cache traffic,
	// the kernel-mode mix and the evolutionary event counts.
	Metrics Metrics
}

// Metrics is the flat per-run observability export shared by both engines:
// pair-cache traffic, the kernel-mode game mix (scalar, cycle-closing and
// bit-sliced batch), the evolutionary event counts and the fault-tolerance
// counters.  For the parallel engine the cache and kernel counters are
// summed over the SSet ranks.
type Metrics struct {
	// Generations is the number of generations the counters cover.
	Generations int
	// CachePlays, CacheHits, CacheMisses, CacheBypassed and CacheEvicted
	// describe persistent pair-cache traffic; all zero when no cache ran.
	// On a well-mixed EvalCached run with integer payoffs a hit stands for
	// one distinct opponent strategy, not one neighbour.  CacheBypassed is
	// always 0 (noisy runs never build a cache).
	CachePlays    int64
	CacheHits     int64
	CacheMisses   int64
	CacheBypassed int64
	CacheEvicted  int64
	// ScalarGames, CycleGames, BatchGames and VectorGames split the
	// executed games by kernel; BatchCalls counts SWAR batch invocations,
	// so BatchGames/BatchCalls/64 is the mean lane occupancy (see
	// BatchLaneOccupancy).  VectorGames counts the games the AVX-512 gather
	// lanes replayed past their gate (memory four to six, noiseless; 0 on
	// CPUs without AVX-512 and under the purego build tag).
	ScalarGames int64
	CycleGames  int64
	BatchGames  int64
	BatchCalls  int64
	VectorGames int64
	// PCEvents, Adoptions and Mutations count the evolutionary events.
	PCEvents  int
	Adoptions int
	Mutations int
	// Restarts, RetriedSends, DroppedMessages, DelayedMessages and
	// RecoveryNanos are the fault-tolerance counters: supervised relaunches
	// from a checkpoint, injected-fault send retries/drops/delays summed
	// over ranks, and the supervisor's recovery wall time.  All zero on a
	// fault-free run.
	Restarts        int
	RetriedSends    int64
	DroppedMessages int64
	DelayedMessages int64
	RecoveryNanos   int64
}

// BatchLaneOccupancy returns the mean fraction of the 64 SWAR lanes filled
// per batch kernel call (0 when the batch kernel never ran).
func (m Metrics) BatchLaneOccupancy() float64 {
	return fitness.Metrics{BatchGames: m.BatchGames, BatchCalls: m.BatchCalls}.BatchLaneOccupancy()
}

// Merge folds another run's (or rank's) metrics into m, with the same
// semantics as the engines' internal merge: every counter is summed and
// Generations is taken as the maximum, so merging the ranks of one run
// keeps its generation count while the batch-lane occupancy re-weights
// itself by the combined BatchGames/BatchCalls.  Ensemble aggregation uses
// it to fold per-replicate metrics into one envelope.
func (m *Metrics) Merge(o Metrics) {
	a := m.toInternal()
	a.Merge(o.toInternal())
	*m = metricsFromInternal(a)
}

// toInternal and metricsFromInternal convert between the facade metrics
// and the internal flat struct: the two declare the same fields in the
// same order, which the conversions make the compiler check.
func (m Metrics) toInternal() fitness.Metrics { return fitness.Metrics(m) }

func metricsFromInternal(m fitness.Metrics) Metrics { return Metrics(m) }

// WSLSFraction returns the final fraction of SSets holding the canonical
// Win-Stay Lose-Shift strategy.
func (r SimulationResult) WSLSFraction() float64 {
	if len(r.Samples) == 0 {
		return 0
	}
	return r.Samples[len(r.Samples)-1].WSLSFraction
}

func (c SimulationConfig) toInternal() (population.Config, error) {
	k, err := resolveKnobs(c.Rounds, c.EvalMode, c.Game, c.Payoff, c.UpdateRule, c.Topology, c.Kernel, c.MemorySteps, c.InitialStrategies)
	if err != nil {
		return population.Config{}, err
	}
	cfg := population.Config{
		NumSSets:          c.NumSSets,
		AgentsPerSSet:     c.AgentsPerSSet,
		MemorySteps:       c.MemorySteps,
		Rounds:            k.rounds,
		Noise:             c.Noise,
		Game:              k.spec,
		UpdateRule:        k.rule,
		Topology:          k.topo,
		PCRate:            c.PCRate,
		MutationRate:      c.MutationRate,
		Beta:              c.Beta,
		Seed:              c.Seed,
		SampleEvery:       c.SampleEvery,
		EvalMode:          k.evalMode,
		Kernel:            k.kernel,
		Workers:           c.Workers,
		InitialStrategies: k.initial,

		CheckpointPath:  c.CheckpointPath,
		CheckpointEvery: c.CheckpointEvery,
		CheckpointLabel: c.CheckpointLabel,
	}
	if c.FaultPlan != "" {
		// The serial engine is the fault model's single rank (rank 0).
		plan, err := faults.Parse(c.FaultPlan, c.Seed, 1)
		if err != nil {
			return population.Config{}, fmt.Errorf("evogame: %w", err)
		}
		cfg.Faults = plan
	}
	return cfg, nil
}

// knobs are the engine settings both facade configurations resolve alike.
type knobs struct {
	rounds   int
	evalMode fitness.EvalMode
	spec     game.Spec
	rule     dynamics.Rule
	topo     topology.Spec
	kernel   game.KernelMode
	initial  []strategy.Strategy // nil when no initial table is given
}

// resolveKnobs resolves the settings SimulationConfig and ParallelConfig
// share: the Rounds default, the evaluation mode, the scenario, the
// topology, the kernel and the initial strategy table, in that order.
func resolveKnobs(rounds int, mode EvalMode, gameName string, payoff []float64, ruleName, topoName, kernelName string, memSteps int, initial []string) (knobs, error) {
	k := knobs{rounds: rounds}
	if k.rounds == 0 {
		k.rounds = game.DefaultRounds
	}
	var err error
	if k.evalMode, err = mode.toInternal(); err != nil {
		return knobs{}, err
	}
	if k.spec, k.rule, err = resolveScenario(gameName, payoff, ruleName); err != nil {
		return knobs{}, err
	}
	if k.topo, err = topology.Parse(topoName); err != nil {
		return knobs{}, fmt.Errorf("evogame: %w", err)
	}
	if k.kernel, err = game.ParseKernelMode(kernelName); err != nil {
		return knobs{}, fmt.Errorf("evogame: %w", err)
	}
	if len(initial) > 0 {
		if k.initial, err = parseStrategies(memSteps, initial); err != nil {
			return knobs{}, err
		}
	}
	return k, nil
}

func parseStrategies(memSteps int, moves []string) ([]strategy.Strategy, error) {
	out := make([]strategy.Strategy, len(moves))
	for i, s := range moves {
		p, err := strategy.ParsePure(memSteps, s)
		if err != nil {
			return nil, fmt.Errorf("evogame: initial strategy %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

func renderStrategies(strats []strategy.Strategy) []string {
	out := make([]string, len(strats))
	for i, s := range strats {
		out[i] = s.String()
	}
	return out
}

// Simulate runs the serial reference engine.  With cfg.MaxRestarts > 0 it
// runs under the supervisor (see SimulationConfig.MaxRestarts): transient
// failures are recovered from checkpoints and the result is bit-identical
// to a fault-free run, with the recovery effort reported in Metrics.
func Simulate(ctx context.Context, cfg SimulationConfig) (SimulationResult, error) {
	return simulate(ctx, cfg, nil)
}

// ResumeSimulation continues a serial run from a checkpoint file for
// cfg.Generations additional generations.  The configuration must describe
// the original run (the snapshot's recorded identity — population shape,
// seed, game, payoff, update rule and topology — is verified against it;
// parameters the snapshot does not record, such as noise and rounds, must
// simply be passed identically), and InitialStrategies must be empty: the
// strategy table comes from the checkpoint, typed.  The engines play pure
// strategies of the configured memory depth only: a checkpoint whose table
// holds an entry of another depth is rejected, naming the entry, and the
// checkpoint reader rejects an entry it cannot decode as a pure strategy.
// The resumed run takes Simulate's
// path, so cfg.MaxRestarts > 0 supervises it exactly as a fresh run.
//
// For a resumable checkpoint (format v4, written by the serial engine) the
// continuation is bit-identical: checkpointing after N generations and
// resuming for N more reproduces exactly the strategy table and event
// counts of an uninterrupted 2N-generation run.  A final-only checkpoint
// (format v3 or older, which predates the recorded RNG streams) still
// restores as a warm start — the typed strategy table and generation
// counter carry over, but the random streams restart from cfg.Seed.
func ResumeSimulation(ctx context.Context, path string, cfg SimulationConfig) (SimulationResult, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return SimulationResult{}, fmt.Errorf("evogame: %w", err)
	}
	return simulate(ctx, cfg, &snap)
}

// simulate runs a serial configuration, fresh or resuming the given
// snapshot, supervised when cfg.MaxRestarts > 0.
func simulate(ctx context.Context, cfg SimulationConfig, resume *checkpoint.Snapshot) (SimulationResult, error) {
	internal, err := cfg.toInternal()
	if err != nil {
		return SimulationResult{}, err
	}
	internal.Resume = resume
	var res population.Result
	if cfg.MaxRestarts > 0 {
		pol := supervise.Policy{MaxRestarts: cfg.MaxRestarts, SegmentEvery: cfg.SegmentEvery}
		res, _, err = supervise.RunSerial(ctx, internal, cfg.Generations, pol)
	} else {
		var model *population.Model
		if model, err = population.New(internal); err == nil {
			res, err = model.Run(ctx, cfg.Generations)
		}
	}
	if err != nil {
		return SimulationResult{}, err
	}
	return serialResultFromInternal(res), nil
}

// serialResultFromInternal maps a serial-engine result onto the facade's
// types; the single-run paths and RunEnsemble share it.
func serialResultFromInternal(res population.Result) SimulationResult {
	out := SimulationResult{
		Generations:     res.Generations,
		FinalStrategies: renderStrategies(res.FinalStrategies),
		PCEvents:        res.NatureStats.PCEvents,
		Adoptions:       res.NatureStats.Adoptions,
		Mutations:       res.NatureStats.Mutations,
		GamesPlayed:     res.TotalGamesPlayed,
		Metrics:         metricsFromInternal(res.Metrics),
	}
	for _, s := range res.Samples {
		out.Samples = append(out.Samples, Sample{
			Generation:          s.Generation,
			DistinctStrategies:  s.Distinct,
			TopStrategy:         s.TopStrategy,
			TopFraction:         s.TopFraction,
			WSLSFraction:        s.WSLSFraction,
			TFTFraction:         s.TFTFraction,
			AllDFraction:        s.AllDFraction,
			MeanDefectingStates: s.MeanDefectingStates,
		})
	}
	return out
}

// ParallelConfig configures the distributed engine.
type ParallelConfig struct {
	// Ranks is the total number of ranks including the Nature Agent (>= 2).
	Ranks int
	// WorkersPerRank bounds the worker goroutines each SSet rank splits an
	// SSet's EvalFull games across, in contiguous opponent ranges whose
	// payoffs are summed in opponent order; the cached modes evaluate on
	// the rank's own goroutine.  Zero selects GOMAXPROCS; negative values
	// are rejected.  The result is independent of the worker count.
	WorkersPerRank int
	// OptimizationLevel selects the Figure 3 optimization level 0..3
	// (0 = original, 1 = comm, 2 = + state lookup, 3 = + fused fitness).
	// In-process sends are eager and never block, so level 1 sends exactly
	// what level 0 does.  Use 3 for production runs.
	OptimizationLevel int

	// The population and game fields are as in SimulationConfig;
	// AgentsPerSSet is validated but read by no engine.
	NumSSets      int
	AgentsPerSSet int
	MemorySteps   int
	Rounds        int
	Noise         float64
	PCRate        float64
	MutationRate  float64
	Beta          float64
	Generations   int
	Seed          uint64
	// InitialStrategies optionally fixes the starting strategy table.
	InitialStrategies []string
	// SkipFitnessWhenIdle evaluates fitness only on learning generations.
	SkipFitnessWhenIdle bool
	// EvalMode selects full, cached or incremental fitness evaluation; all
	// modes produce identical results for identical seeds.
	EvalMode EvalMode
	// Kernel selects the deterministic-game inner loop exactly as in
	// SimulationConfig ("" / "auto" / "full-replay" / "batch").
	// Optimization levels below 2 always replay in full, preserving the
	// Figure 3 ablation's original kernel.
	Kernel string
	// Game, Payoff, UpdateRule and Topology select the scenario, exactly as
	// in SimulationConfig; empty values are the paper's IPD + Fermi +
	// well-mixed defaults.
	Game       string
	Payoff     []float64
	UpdateRule string
	Topology   string
	// CheckpointPath, CheckpointEvery and CheckpointLabel configure
	// resumable checkpoints exactly as in SimulationConfig; the Nature
	// Agent (rank 0) writes them.  ResumeParallelSimulation continues a
	// run from such a file bit-identically.
	CheckpointPath  string
	CheckpointEvery int
	CheckpointLabel string
	// FaultPlan, when non-empty, arms a deterministic fault-injection plan
	// in the spec grammar of docs/FAULT_TOLERANCE.md — crashes, message
	// drops and message delays at chosen (generation, rank) points, for
	// example "crash@40:r1,drop@10:r2:x3".  Events are derived from Seed,
	// so a given (plan, seed) pair replays identically.
	FaultPlan string
	// MaxRestarts, when positive, runs the simulation under the
	// supervisor: transient failures (injected faults, dead ranks, expired
	// communication deadlines) are recovered from the newest checkpoint
	// segment up to MaxRestarts times, and the recovered run is
	// bit-identical to a fault-free one.  Zero disables recovery.
	MaxRestarts int
	// SegmentEvery is the supervisor's checkpoint cadence in generations;
	// zero keeps CheckpointEvery.  Only meaningful with MaxRestarts > 0.
	SegmentEvery int
	// CommDeadlineSeconds bounds every blocking receive in the
	// message-passing fabric: a rank blocked longer fails with a deadline
	// error instead of hanging (zero means no deadline).  Dead peers are
	// detected and propagated regardless, so this is a backstop against
	// silent stalls, not the primary failure detector.
	CommDeadlineSeconds float64
}

// RankSummary reports one rank's work and communication.  On the cached
// path GamesPlayed is this rank's share of the pairs the run stored: a
// split of TotalGames that depends on which rank reached a pair first, so
// it varies with scheduling while TotalGames does not.
type RankSummary struct {
	Rank             int
	LocalSSets       int
	GamesPlayed      int64
	ComputeSeconds   float64
	CommSeconds      float64
	MessagesSent     int64
	MessagesReceived int64
	BytesSent        int64
}

// ParallelResult is the outcome of SimulateParallel.
type ParallelResult struct {
	Generations      int
	FinalStrategies  []string
	WallClockSeconds float64
	// ComputeSeconds and CommSeconds are the mean per-rank times over the
	// SSet ranks (the breakdown of the paper's Figure 5).
	ComputeSeconds float64
	CommSeconds    float64
	// TotalGames is the number of games played; on the cached path, the
	// pairs the run stored, the same at every rank count while the store
	// is under budget.
	TotalGames int64
	PCEvents   int
	Adoptions  int
	Mutations  int
	Ranks      []RankSummary
	// Metrics is the run's flat observability export, summed over the SSet
	// ranks (see Metrics).  Its ScalarGames, CycleGames, BatchGames and
	// VectorGames may exceed TotalGames by pairs two ranks played at the
	// same moment, of which the store kept one.
	Metrics Metrics
}

// toInternal maps the facade's parallel configuration onto the internal
// engine configuration, resolving scenario names and eval mode.
func (c ParallelConfig) toInternal() (parallel.Config, error) {
	if c.OptimizationLevel < 0 || c.OptimizationLevel > int(parallel.OptFusedFitness) {
		return parallel.Config{}, fmt.Errorf("evogame: optimization level %d out of range [0,3]", c.OptimizationLevel)
	}
	k, err := resolveKnobs(c.Rounds, c.EvalMode, c.Game, c.Payoff, c.UpdateRule, c.Topology, c.Kernel, c.MemorySteps, c.InitialStrategies)
	if err != nil {
		return parallel.Config{}, err
	}
	internal := parallel.Config{
		Ranks:               c.Ranks,
		WorkersPerRank:      c.WorkersPerRank,
		EvalMode:            k.evalMode,
		Kernel:              k.kernel,
		Game:                k.spec,
		UpdateRule:          k.rule,
		Topology:            k.topo,
		NumSSets:            c.NumSSets,
		AgentsPerSSet:       c.AgentsPerSSet,
		MemorySteps:         c.MemorySteps,
		Rounds:              k.rounds,
		Noise:               c.Noise,
		PCRate:              c.PCRate,
		MutationRate:        c.MutationRate,
		Beta:                c.Beta,
		Generations:         c.Generations,
		Seed:                c.Seed,
		OptLevel:            parallel.OptLevel(c.OptimizationLevel),
		SkipFitnessWhenIdle: c.SkipFitnessWhenIdle,
		InitialStrategies:   k.initial,

		CheckpointPath:  c.CheckpointPath,
		CheckpointEvery: c.CheckpointEvery,
		CheckpointLabel: c.CheckpointLabel,
	}
	if c.CommDeadlineSeconds < 0 {
		return parallel.Config{}, fmt.Errorf("evogame: CommDeadlineSeconds must be non-negative, got %v", c.CommDeadlineSeconds)
	}
	internal.CommDeadline = time.Duration(c.CommDeadlineSeconds * float64(time.Second))
	if c.FaultPlan != "" {
		plan, err := faults.Parse(c.FaultPlan, c.Seed, c.Ranks)
		if err != nil {
			return parallel.Config{}, fmt.Errorf("evogame: %w", err)
		}
		internal.Faults = plan
	}
	return internal, nil
}

// SimulateParallel runs the distributed engine.  With cfg.MaxRestarts > 0
// it runs under the supervisor (see ParallelConfig.MaxRestarts): transient
// failures are recovered from checkpoints and the result is bit-identical
// to a fault-free run, with the recovery effort reported in Metrics.
func SimulateParallel(cfg ParallelConfig) (ParallelResult, error) {
	return simulateParallel(cfg, nil)
}

// ResumeParallelSimulation continues a distributed run from a checkpoint
// file for cfg.Generations additional generations, with the same contract
// as ResumeSimulation: the configuration must describe the original run,
// InitialStrategies must be empty, cfg.MaxRestarts > 0 supervises the
// resumed run as it does a fresh one, and a resumable parallel-engine
// checkpoint continues bit-identically (the Nature Agent's stream and event
// counters are restored, and the SSet ranks' per-generation noise streams
// are re-derived from the recorded generation).  A final-only checkpoint
// restores as a warm start from its typed strategy table.
func ResumeParallelSimulation(path string, cfg ParallelConfig) (ParallelResult, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return ParallelResult{}, fmt.Errorf("evogame: %w", err)
	}
	return simulateParallel(cfg, &snap)
}

// simulateParallel runs a distributed configuration, fresh or resuming
// the given snapshot, supervised when cfg.MaxRestarts > 0.
func simulateParallel(cfg ParallelConfig, resume *checkpoint.Snapshot) (ParallelResult, error) {
	internal, err := cfg.toInternal()
	if err != nil {
		return ParallelResult{}, err
	}
	internal.Resume = resume
	var res parallel.Result
	if cfg.MaxRestarts > 0 {
		pol := supervise.Policy{MaxRestarts: cfg.MaxRestarts, SegmentEvery: cfg.SegmentEvery}
		res, _, err = supervise.RunParallel(internal, pol)
	} else {
		res, err = parallel.Run(internal)
	}
	if err != nil {
		return ParallelResult{}, err
	}
	return parallelResultFromInternal(res), nil
}

// parallelResultFromInternal maps a distributed-engine result onto the
// facade's types; the single-run paths and RunEnsemble share it.
func parallelResultFromInternal(res parallel.Result) ParallelResult {
	out := ParallelResult{
		Generations:      res.Generations,
		FinalStrategies:  renderStrategies(res.FinalStrategies),
		WallClockSeconds: res.WallClock.Seconds(),
		ComputeSeconds:   res.ComputeTime().Seconds(),
		CommSeconds:      res.CommTime().Seconds(),
		TotalGames:       res.TotalGames,
		PCEvents:         res.NatureStats.PCEvents,
		Adoptions:        res.NatureStats.Adoptions,
		Mutations:        res.NatureStats.Mutations,
		Metrics:          metricsFromInternal(res.Metrics),
	}
	for _, r := range res.Ranks {
		out.Ranks = append(out.Ranks, RankSummary{
			Rank:             r.Rank,
			LocalSSets:       r.LocalSSets,
			GamesPlayed:      r.GamesPlayed,
			ComputeSeconds:   r.Compute.Seconds(),
			CommSeconds:      r.Comm.Seconds(),
			MessagesSent:     r.CommStats.SendCount,
			MessagesReceived: r.CommStats.RecvCount,
			BytesSent:        r.CommStats.BytesSent,
		})
	}
	return out
}

// NamedStrategy returns the move-table string of a built-in strategy
// ("allc", "alld", "tft", "wsls", "grim", "tf2t", "alternator") for the
// given memory depth.  An unknown name or a memory depth outside
// [1, MaxMemorySteps] returns an error.
func NamedStrategy(name string, memSteps int) (string, error) {
	s, err := strategy.ByName(name, memSteps)
	if err != nil {
		return "", err
	}
	return s.String(), nil
}

// StrategySpaceSize returns the number of game states (4^n) and the base-2
// logarithm of the number of pure strategies for the given memory depth —
// the quantities of the paper's Table IV.
func StrategySpaceSize(memSteps int) (states int, log2Strategies int, err error) {
	if memSteps < 1 || memSteps > MaxMemorySteps {
		return 0, 0, fmt.Errorf("evogame: memory steps %d out of range [1,%d]", memSteps, MaxMemorySteps)
	}
	states = game.NumStates(memSteps)
	return states, strategy.NumPureStrategiesLog2(memSteps), nil
}

// ClusterSummary describes one cluster of the final population, in the
// spirit of the paper's Figure 2 visualisation.
type ClusterSummary struct {
	// Size is the number of strategies in the cluster.
	Size int
	// Fraction is the share of the population in the cluster.
	Fraction float64
	// Centroid is the per-state defection frequency of the cluster (values
	// near 0 mean the cluster cooperates in that state).
	Centroid []float64
	// Representative is the most common move-table string in the cluster.
	Representative string
}

// ClusterStrategies groups strategy move-table strings into k clusters with
// Lloyd k-means, returning the clusters ordered from largest to smallest.
func ClusterStrategies(strategies []string, k int, seed uint64) ([]ClusterSummary, error) {
	if len(strategies) == 0 {
		return nil, fmt.Errorf("evogame: no strategies to cluster")
	}
	dim := len(strategies[0])
	rows := make([][]bool, len(strategies))
	for i, s := range strategies {
		if len(s) != dim {
			return nil, fmt.Errorf("evogame: strategy %d has length %d, want %d", i, len(s), dim)
		}
		row := make([]bool, dim)
		for j := 0; j < dim; j++ {
			switch s[j] {
			case '0':
			case '1':
				row[j] = true
			default:
				return nil, fmt.Errorf("evogame: strategy %d has invalid character %q", i, s[j])
			}
		}
		rows[i] = row
	}
	res, err := kmeans.Cluster(kmeans.BinaryPoints(rows), kmeans.Config{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	summaries := make([]ClusterSummary, k)
	counts := make([]map[string]int, k)
	for i := range counts {
		counts[i] = make(map[string]int)
	}
	for i, cluster := range res.Assignments {
		counts[cluster][strategies[i]]++
	}
	for ci := 0; ci < k; ci++ {
		best, bestCount := "", -1
		for s, c := range counts[ci] {
			if c > bestCount || (c == bestCount && s < best) {
				best, bestCount = s, c
			}
		}
		summaries[ci] = ClusterSummary{
			Size:           res.Sizes[ci],
			Fraction:       float64(res.Sizes[ci]) / float64(len(strategies)),
			Centroid:       res.Centroids[ci],
			Representative: best,
		}
	}
	// Order largest first (simple insertion sort keeps the facade free of
	// sort.Slice closures over index pairs).
	for i := 1; i < len(summaries); i++ {
		for j := i; j > 0 && summaries[j].Size > summaries[j-1].Size; j-- {
			summaries[j], summaries[j-1] = summaries[j-1], summaries[j]
		}
	}
	return summaries, nil
}

// ArtifactInfo describes one regenerable paper artifact of the registry
// behind cmd/paperkit: a named sweep whose committed tables CI keeps
// bit-identical to regeneration.
type ArtifactInfo struct {
	// Name is the registry key (pass it to paperkit's -artifact flag).
	Name string
	// Title is a short human description of the sweep.
	Title string
	// Figure names the paper figure the artifact backs.
	Figure string
	// Description explains the sweep axis and what the table shows.
	Description string
	// Claim is the determinism statement the rendered table pins.
	Claim string
	// QuickCells and FullCells count the grid points of the committed
	// quick grid and the paper-scale full grid.
	QuickCells int
	// FullCells counts the full grid's cells (see QuickCells).
	FullCells int
}

// Artifacts lists the registered paper artifacts in rendering order; these
// are the sweeps `paperkit run` regenerates and `paperkit verify` pins.
func Artifacts() []string {
	return artifact.Names()
}

// DescribeArtifact returns the registry entry of one paper artifact by
// name; Artifacts lists the valid names.
func DescribeArtifact(name string) (ArtifactInfo, error) {
	a, err := artifact.Lookup(name)
	if err != nil {
		return ArtifactInfo{}, err
	}
	return ArtifactInfo{
		Name:        a.Name,
		Title:       a.Title,
		Figure:      a.Figure,
		Description: a.Description,
		Claim:       a.Claim,
		QuickCells:  len(a.Grid(true)),
		FullCells:   len(a.Grid(false)),
	}, nil
}
