// Package parallel implements the paper's primary contribution: the
// multi-level decomposition of evolutionary game dynamics across a
// distributed machine.
//
// Rank 0 is the Nature Agent; every other rank owns a contiguous block of
// Strategy Sets.  Within one generation each SSet rank plays the Iterated
// Prisoner's Dilemma games of its local SSets against the strategies of
// every other SSet in the population, fanning the games across worker
// goroutines (the "OpenMP thread" tier of the paper's hybrid model).  The
// Nature Agent then drives the population dynamics: it broadcasts the pair
// of SSets selected for pairwise-comparison learning, the owning ranks
// return their relative fitness with point-to-point messages, and the Nature
// Agent broadcasts the resulting strategy-table update together with any
// mutation (Figure 1(b) of the paper).
//
// The engine is deterministic: for a given Config (including Seed) the
// sequence of evolutionary events, and therefore the final strategy table,
// is identical regardless of the number of ranks or worker goroutines, and —
// for noiseless games — identical to the serial reference engine in
// internal/population.  Tests rely on this equivalence.
package parallel

import (
	"encoding/binary"
	"fmt"
	"time"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/mpi"
	"evogame/internal/nature"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
	"evogame/internal/trace"
)

// OptLevel selects the cumulative optimization levels of the paper's
// Figure 3.  Each level includes all previous ones.
type OptLevel int

const (
	// OptOriginal is the unoptimized baseline: blocking fitness returns,
	// linear-search state identification and branching fitness accumulation.
	OptOriginal OptLevel = iota
	// OptNonBlockingComm is the paper's "Comm" level, which switched the
	// fitness returns to non-blocking sends.  In-process sends are eager and
	// never block, so this level runs OptOriginal's sends unchanged.
	OptNonBlockingComm
	// OptStateLookup replaces the linear state search with the O(1) rolling
	// state code (the paper's "Compiler" level).
	OptStateLookup
	// OptFusedFitness accumulates payoffs through the fused look-up table
	// (the paper's "Instruction" level, standing in for the hand-coded
	// fused multiply-add kernel).
	OptFusedFitness
)

// String implements fmt.Stringer.
func (o OptLevel) String() string {
	switch o {
	case OptOriginal:
		return "original"
	case OptNonBlockingComm:
		return "comm"
	case OptStateLookup:
		return "compiler"
	case OptFusedFitness:
		return "instruction"
	default:
		return fmt.Sprintf("OptLevel(%d)", int(o))
	}
}

// stateMode returns the game kernel state mode for the optimization level.
func (o OptLevel) stateMode() game.StateMode {
	if o >= OptStateLookup {
		return game.StateRolling
	}
	return game.StateLinearSearch
}

// accumMode returns the fitness accumulation mode for the optimization
// level.
func (o OptLevel) accumMode() game.AccumMode {
	if o >= OptFusedFitness {
		return game.AccumLookup
	}
	return game.AccumBranching
}

// kernelMode resolves the game-kernel mode for the optimization level: the
// levels below the paper's "Compiler" tier reproduce the original
// round-by-round kernel faithfully (that is what the Figure 3 ablation
// measures), so the cycle-closing fast path only engages from OptStateLookup
// upward, and even there the requested mode can force a full replay.
func (o OptLevel) kernelMode(requested game.KernelMode) game.KernelMode {
	if o < OptStateLookup {
		return game.KernelFullReplay
	}
	return requested
}

// Config describes a distributed run.
type Config struct {
	// Ranks is the total number of ranks including the Nature Agent at rank
	// 0; it must be at least 2.
	Ranks int
	// WorkersPerRank bounds the worker goroutines each SSet rank splits an
	// SSet's EvalFull games across (contiguous opponent ranges, summed in
	// opponent order, so the count never changes a result); the cached
	// modes evaluate on the rank's own goroutine.  Zero selects GOMAXPROCS
	// (the default resolves in fitness.PlayAll); negative values are
	// rejected.
	WorkersPerRank int

	// NumSSets, AgentsPerSSet, MemorySteps, Rounds and Noise describe the
	// population and the game, exactly as in population.Config;
	// AgentsPerSSet is validated there but read by no engine.
	NumSSets      int
	AgentsPerSSet int
	MemorySteps   int
	Rounds        int
	Noise         float64

	// Game selects the scenario played; the zero value is the paper's IPD
	// spec (see game.LookupSpec).  Every rank plays the same game.
	Game game.Spec
	// UpdateRule selects the Nature Agent's adoption rule; nil is the
	// paper's Fermi pairwise-comparison rule (see dynamics.Lookup).  Only
	// rank 0 applies it, so the choreography is identical for every rule.
	UpdateRule dynamics.Rule
	// Topology selects the interaction graph (see topology.Parse); the zero
	// value is the paper's well-mixed population, bit-identical per seed to
	// the pre-topology engine.  Every rank rebuilds the identical graph
	// deterministically from Seed, so no adjacency data crosses the wire:
	// the Nature Agent draws learning pairs from it and the SSet ranks
	// restrict their game play to its edges.
	Topology topology.Spec

	// PCRate, MutationRate and Beta configure the Nature Agent (zero values
	// select the paper's defaults).
	PCRate       float64
	MutationRate float64
	Beta         float64

	// Generations is the number of generations to simulate.
	Generations int
	// Seed drives all randomness.
	Seed uint64
	// OptLevel selects the Figure 3 optimization level; the zero value is
	// OptOriginal.  Use OptFusedFitness for production runs.
	OptLevel OptLevel
	// Kernel selects the deterministic-game inner loop (the zero value,
	// game.KernelAuto, closes the joint-state cycle in closed form whenever
	// that is bit-exact).  Levels below OptStateLookup always replay in
	// full, preserving the Figure 3 ablation's original kernel.  All kernel
	// modes produce identical trajectories per seed.
	Kernel game.KernelMode
	// InitialStrategies optionally fixes the initial strategy table (length
	// NumSSets, each entry a *strategy.Pure of depth MemorySteps; see
	// nature.Start); when nil the table is drawn uniformly at random,
	// matching the serial engine's initialisation for the same Seed.
	InitialStrategies []strategy.Strategy
	// SkipFitnessWhenIdle, when true, evaluates fitness only on generations
	// with a pairwise-comparison event instead of every generation.  The
	// paper's implementation computes every generation (that is the work the
	// scaling studies measure), which is the default here; the flag exists
	// for long scientific runs where only the dynamics matter.
	SkipFitnessWhenIdle bool
	// EvalMode routes each SSet rank's fitness evaluation through the
	// shared internal/fitness subsystem.  The zero value, fitness.EvalFull,
	// replays every game every generation exactly as the paper's
	// implementation does (the workload the scaling studies measure).
	// EvalCached plays each distinct pair once per run through a pair cache
	// every SSet rank shares (see SharedCache), and EvalIncremental
	// additionally maintains the rank's block of the fitness matrix,
	// invalidated by the Nature Agent's broadcast strategy-table updates.
	// A noisy run falls back to the EvalFull path, keeping all modes
	// bit-for-bit identical per seed.
	EvalMode fitness.EvalMode

	// CheckpointPath, when non-empty, makes the Nature Agent write a
	// resumable (format v4) checkpoint of the final state; combined with
	// CheckpointEvery it also receives the periodic mid-run checkpoints.
	// Only rank 0 touches the file — it owns the authoritative table and
	// the event stream, which together with the recorded generation are the
	// complete resume state of a distributed run (the SSet ranks' noise
	// streams are re-derived per (Seed, generation, SSet id)).
	CheckpointPath string
	// CheckpointEvery writes a mid-run checkpoint to CheckpointPath every
	// this many generations of simulated time (0 disables periodic
	// checkpointing).  Each write atomically replaces the previous one.
	CheckpointEvery int
	// CheckpointLabel is recorded as the checkpoint's free-form Label.
	CheckpointLabel string
	// Resume, when non-nil, continues the run captured by the snapshot
	// instead of starting fresh: the strategy table comes from the
	// checkpoint, the generation counter continues from the recorded value
	// (Generations then counts *additional* generations), and — for a
	// resumable parallel-engine snapshot — the Nature Agent's RNG stream
	// and event counters are restored, making the continuation
	// bit-identical to an uninterrupted run.  A final-only snapshot warm
	// starts from its table with fresh streams.  The snapshot's identity
	// (shape, seed, game, rule, topology) must match the Config.
	Resume *checkpoint.Snapshot
	// SharedCache, when non-nil, makes every SSet rank evaluate fitness
	// through a view over the given cache's store instead of one the run
	// builds for its own ranks (see fitness.NewStore), so independent runs
	// of the same configuration (ensemble replicates) share one interning
	// registry and one memoized pair table too.  Either way a rank only
	// uses it when the run memoizes (see fitness.Memoizes); EvalFull and
	// the noise bypass ignore it, so RNG streams never move and every run
	// stays bit-identical per seed whichever store it uses.  The cache must
	// be bound to the identical game (same spec, payoff, rounds and memory
	// depth) or the run fails.
	SharedCache *fitness.PairCache

	// Faults installs a deterministic fault injector on the communicator
	// (typically a *faults.Plan): rank crashes fire at the per-generation
	// fault points, message drops and delays perturb sends.  Nil (the
	// default) runs entirely fault-free — the fabric never consults the
	// hook.  Injected failures surface as mpi.ErrRankFailed /
	// mpi.ErrSendFailed errors that internal/supervise classifies as
	// transient and recovers from checkpoints.
	Faults mpi.FaultInjector
	// CommDeadline bounds every blocking mpi primitive: a rank blocked
	// longer than this returns mpi.ErrDeadline instead of hanging.  Zero
	// (the default) disables the deadline.
	CommDeadline time.Duration
}

// EngineConfig is the game engine configuration every SSet rank of a run
// with this Config plays on: the optimization level's state and
// accumulation modes and its kernel.
func (c Config) EngineConfig() game.EngineConfig {
	return game.EngineConfig{
		Game:        c.Game,
		Rounds:      c.Rounds,
		MemorySteps: c.MemorySteps,
		Noise:       c.Noise,
		StateMode:   c.OptLevel.stateMode(),
		AccumMode:   c.OptLevel.accumMode(),
		Kernel:      c.OptLevel.kernelMode(c.Kernel),
	}
}

// validate checks the fields only the distributed engine has; nature.Start
// checks the ones both engines share.
func (c Config) validate() error {
	if c.Ranks < 2 {
		return fmt.Errorf("parallel: need at least 2 ranks (Nature + 1 SSet rank), got %d", c.Ranks)
	}
	if c.NumSSets < c.Ranks-1 {
		return fmt.Errorf("parallel: %d SSets cannot occupy %d SSet ranks", c.NumSSets, c.Ranks-1)
	}
	if c.WorkersPerRank < 0 {
		return fmt.Errorf("parallel: WorkersPerRank must be non-negative, got %d (0 selects GOMAXPROCS)", c.WorkersPerRank)
	}
	if c.Generations < 0 {
		return fmt.Errorf("parallel: negative generation count %d", c.Generations)
	}
	if c.CommDeadline < 0 {
		return fmt.Errorf("parallel: CommDeadline must be non-negative, got %v", c.CommDeadline)
	}
	return nil
}

// RankReport summarises one rank's work and communication.  Compute and
// Comm tile the rank's run from its start: each phase boundary charges the
// interval just ended to one of them.  On the cached path GamesPlayed is
// the pairs this rank stored in the run's shared store, a split of
// TotalGames that depends on which rank reached a pair first.
type RankReport struct {
	Rank        int
	LocalSSets  int
	GamesPlayed int64
	Compute     time.Duration
	Comm        time.Duration
	CommStats   mpi.Stats
	// Metrics holds the rank's cache and kernel-mix counters (zero for the
	// Nature Agent, which plays no games).
	Metrics fitness.Metrics
}

// Result summarises a completed distributed run.
type Result struct {
	// FinalStrategies is the strategy table after the last generation, as
	// recorded by the Nature Agent.
	FinalStrategies []strategy.Strategy
	// Generations is the number of generations simulated.
	Generations int
	// WallClock is the end-to-end run time.
	WallClock time.Duration
	// Ranks holds the per-rank reports, indexed by rank.
	Ranks []RankReport
	// NatureStats counts evolutionary events.
	NatureStats nature.Stats
	// TotalGames is the number of IPD games played across all ranks; on the
	// cached path, the number of pairs the run stored, which does not
	// depend on the rank count while the store is under its budget.
	TotalGames int64
	// Metrics is the run's flat observability export: the rank-summed cache
	// and kernel-mix counters plus the Nature Agent's event counts.  The
	// kernel-mix games may exceed TotalGames by pairs two ranks played at
	// the same moment, of which the store kept one.
	Metrics fitness.Metrics
}

// ComputeTime returns the mean per-rank compute time over the SSet ranks.
func (r Result) ComputeTime() time.Duration {
	return r.meanOverSSetRanks(func(rep RankReport) time.Duration { return rep.Compute })
}

// CommTime returns the mean per-rank communication time over the SSet ranks.
func (r Result) CommTime() time.Duration {
	return r.meanOverSSetRanks(func(rep RankReport) time.Duration { return rep.Comm })
}

func (r Result) meanOverSSetRanks(f func(RankReport) time.Duration) time.Duration {
	if len(r.Ranks) <= 1 {
		return 0
	}
	var total time.Duration
	n := 0
	for _, rep := range r.Ranks {
		if rep.Rank == 0 {
			continue
		}
		total += f(rep)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// Tags for the point-to-point fitness returns.
const (
	tagFitnessTeacher = 1
	tagFitnessLearner = 2
)

// blockOwner maps an SSet index to the rank that owns it (block
// distribution across ranks 1..Ranks-1) and the local index within the
// block.
func blockOwner(ssetID, numSSets, ranks int) (owner, local int) {
	ssetRanks := ranks - 1
	per := numSSets / ssetRanks
	extra := numSSets % ssetRanks
	// The first `extra` ranks hold per+1 SSets.
	cut := extra * (per + 1)
	if ssetID < cut {
		owner = ssetID / (per + 1)
		local = ssetID % (per + 1)
	} else {
		owner = extra + (ssetID-cut)/per
		local = (ssetID - cut) % per
	}
	return owner + 1, local
}

// blockRange returns the half-open range of SSet indices owned by the given
// SSet rank (rank >= 1).
func blockRange(rank, numSSets, ranks int) (lo, hi int) {
	ssetRanks := ranks - 1
	per := numSSets / ssetRanks
	extra := numSSets % ssetRanks
	idx := rank - 1
	if idx < extra {
		lo = idx * (per + 1)
		hi = lo + per + 1
		return lo, hi
	}
	lo = extra*(per+1) + (idx-extra)*per
	hi = lo + per
	return lo, hi
}

// mixSeed derives a deterministic per-(generation, SSet) seed for noisy game
// play so that results do not depend on rank layout or scheduling.
func mixSeed(seed uint64, gen, ssetID int) uint64 {
	x := seed ^ 0x9E3779B97F4A7C15
	x ^= uint64(gen+1) * 0xBF58476D1CE4E5B9
	x ^= uint64(ssetID+1) * 0x94D049BB133111EB
	x ^= x >> 29
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// Run executes the distributed simulation and returns the result.  All
// ranks run as goroutines inside the calling process, communicating through
// the in-process message-passing runtime.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	//lint:allow randsource wall-clock run duration for Result.WallClock reporting; never feeds simulation state
	start := time.Now()
	// The Nature Agent is set up before any rank runs, so a run that fails
	// validation or its resume checks never starts the fabric.
	run, err := nature.Start(nature.Run{
		Name: "parallel", Engine: checkpoint.EngineParallel,
		NumSSets: cfg.NumSSets, AgentsPerSSet: cfg.AgentsPerSSet, MemorySteps: cfg.MemorySteps, Rounds: cfg.Rounds,
		Seed: cfg.Seed, Game: cfg.Game, Topology: cfg.Topology, EvalMode: cfg.EvalMode, Kernel: cfg.Kernel,
		InitialStrategies: cfg.InitialStrategies, Resume: cfg.Resume,
		CheckpointPath: cfg.CheckpointPath, CheckpointEvery: cfg.CheckpointEvery, CheckpointLabel: cfg.CheckpointLabel,
		Nature: nature.Config{PCRate: cfg.PCRate, MutationRate: cfg.MutationRate, Beta: cfg.Beta, Rule: cfg.UpdateRule},
	})
	if err != nil {
		return Result{}, err
	}

	// Every SSet rank of the run evaluates through a view over one store,
	// so a pair any rank has played is never played again by another.  The
	// ranks share the run's clock on that store: an ID is retired once the
	// slowest rank has passed the generation its last holder left it.  A
	// store the caller passed in is shared with other runs.
	store := cfg.SharedCache
	if store == nil {
		if store, err = fitness.NewStore(cfg.EngineConfig(), cfg.EvalMode); err != nil {
			return Result{}, err
		}
	}
	cfg.SharedCache = store.ForRun(cfg.Ranks-1, store == cfg.SharedCache)

	reports := make([]RankReport, cfg.Ranks)
	err = mpi.RunWithOptions(cfg.Ranks, mpi.Options{
		Injector: cfg.Faults,
		Deadline: cfg.CommDeadline,
	}, func(c *mpi.Comm) (err error) {
		if c.Rank() == 0 {
			reports[0], err = natureRank(c, cfg, run)
		} else {
			reports[c.Rank()], err = ssetRank(c, cfg, run.Generation)
		}
		return err
	})
	if err != nil {
		return Result{}, err
	}

	// Rank 0 has updated the table in place and the agent holds its counters.
	natStats := run.Agent.Stats()
	res := Result{
		FinalStrategies: run.Table,
		Generations:     run.Generation + cfg.Generations,
		WallClock:       time.Since(start),
		Ranks:           reports,
		NatureStats:     natStats,
	}
	for _, rep := range reports {
		res.TotalGames += rep.GamesPlayed
		res.Metrics.Merge(rep.Metrics)
		res.Metrics.RetriedSends += rep.CommStats.RetriedSends
		res.Metrics.DroppedMessages += rep.CommStats.DroppedMessages
		res.Metrics.DelayedMessages += rep.CommStats.DelayedMessages
	}
	res.Metrics.Generations = res.Generations
	res.Metrics.PCEvents = natStats.PCEvents
	res.Metrics.Adoptions = natStats.Adoptions
	res.Metrics.Mutations = natStats.Mutations
	return res, nil
}

// natureRank runs the Nature Agent on rank 0: it owns the authoritative
// strategy table (run.Table, updated in place), selects the evolutionary
// events, and broadcasts updates.
func natureRank(c *mpi.Comm, cfg Config, run nature.Setup) (RankReport, error) {
	rec := trace.NewRecorder()
	nat, start := run.Agent, run.Generation
	// Rank 0 needs no interned IDs, so its table is a plain slice: a
	// registry here would keep every mutant the run ever draws.  Strategies
	// are immutable, so an adoption shares the teacher's value.
	table := run.Table
	snap := func(gen int) checkpoint.Snapshot { return nat.Snapshot(gen, table) }

	// Setup phase: broadcast the initial strategy table to all SSet ranks.
	payload, err := encodeTable(table)
	if err != nil {
		return RankReport{}, err
	}
	rec.Lap(trace.PhaseCompute)
	if _, err := c.Bcast(0, payload); err != nil {
		return RankReport{}, err
	}
	rec.Lap(trace.PhaseComm)

	// Bcast copies what it sends, so one update buffer serves every
	// generation.
	var upBuf []byte
	for gen := 0; gen < cfg.Generations; gen++ {
		// Mark the epoch (and give an installed fault plan its per-generation
		// crash point) before any choreography of the generation runs.
		if err := c.FaultPoint(start + gen); err != nil {
			return RankReport{}, err
		}

		// Phase 1: pairwise-comparison selection broadcast.
		teacher, learner, pcOK := nat.MaybeSelectPC(cfg.NumSSets)
		sel := encodeSelection(pcOK, teacher, learner)
		rec.Lap(trace.PhaseCompute)
		if _, err := c.Bcast(0, sel); err != nil {
			return RankReport{}, err
		}

		// Phase 2: collect fitness from the owners of the selected SSets and
		// decide adoption.
		var tFit, lFit float64
		if pcOK {
			teacherOwner, _ := blockOwner(teacher, cfg.NumSSets, cfg.Ranks)
			learnerOwner, _ := blockOwner(learner, cfg.NumSSets, cfg.Ranks)
			if tFit, err = recvFitness(c, teacherOwner, tagFitnessTeacher); err != nil {
				return RankReport{}, err
			}
			if lFit, err = recvFitness(c, learnerOwner, tagFitnessLearner); err != nil {
				return RankReport{}, err
			}
		}
		rec.Lap(trace.PhaseComm)
		var update updateMessage
		if pcOK {
			adopted, _ := nat.DecideAdoption(tFit, lFit)
			nat.RecordPC(adopted)
			if adopted {
				update.learning = true
				update.learner = learner
				update.teacher = teacher
			}
		}

		// Phase 3: mutation.
		if target, newStrat, ok := nat.MaybeMutation(cfg.NumSSets); ok {
			update.mutation = true
			update.target = target
			update.targetStrategy = newStrat
		}
		if err := applyUpdate(update, table, nil); err != nil {
			return RankReport{}, err
		}

		// Phase 4: broadcast the strategy-table update.
		if upBuf, err = encodeUpdate(upBuf[:0], update); err != nil {
			return RankReport{}, err
		}
		rec.Lap(trace.PhaseCompute)
		if _, err := c.Bcast(0, upBuf); err != nil {
			return RankReport{}, err
		}
		rec.Lap(trace.PhaseComm)
		nat.EndGeneration()

		// A failed periodic save must NOT abort the loop: the SSet ranks are
		// blocked on the next phase-1 broadcast, and rank 0 returning early
		// would deadlock the whole fabric.  The agent keeps the failure and
		// the final call below reports it once the choreography completes.
		_ = nat.Checkpoint(start+gen+1, false, snap)
	}
	if err := nat.Checkpoint(start+cfg.Generations, true, snap); err != nil {
		return RankReport{}, err
	}

	rec.Lap(trace.PhaseCompute)
	return RankReport{
		Rank:      0,
		Compute:   rec.Total(trace.PhaseCompute),
		Comm:      rec.Total(trace.PhaseComm),
		CommStats: c.Stats(),
	}, nil
}

// ssetRank runs one Strategy-Set-owning rank: it plays the local games each
// generation, answers the Nature Agent's fitness requests, and applies the
// broadcast strategy-table updates.
func ssetRank(c *mpi.Comm, cfg Config, start int) (RankReport, error) {
	rec := trace.NewRecorder()
	lo, hi := blockRange(c.Rank(), cfg.NumSSets, cfg.Ranks)

	// Each rank rebuilds the interaction graph deterministically from the
	// seed; it is identical on every rank and on the Nature Agent.
	graph, err := cfg.Topology.Build(cfg.NumSSets, cfg.Seed)
	if err != nil {
		return RankReport{}, err
	}

	engine, err := game.NewEngine(cfg.EngineConfig())
	if err != nil {
		return RankReport{}, err
	}

	// Setup phase: receive the initial strategy table.
	rec.Lap(trace.PhaseCompute)
	tableBytes, err := c.Bcast(0, nil)
	if err != nil {
		return RankReport{}, err
	}
	rec.Lap(trace.PhaseComm)
	table, err := decodeTable(tableBytes)
	if err != nil {
		return RankReport{}, err
	}
	if len(table) != cfg.NumSSets {
		return RankReport{}, fmt.Errorf("parallel: rank %d received a table of %d strategies, want %d",
			c.Rank(), len(table), cfg.NumSSets)
	}

	games := int64(0)
	fit := make([]float64, hi-lo)

	// The cached evaluation modes read fitness from the rank's evaluator
	// (nil on the EvalFull path, including the noise bypass),
	// kept coherent by applying the Nature Agent's broadcast strategy-table
	// updates to it.  Its table is then the rank's only copy of the global
	// table.
	ev, err := fitness.NewEvaluator(engine, graph, table, lo, hi, cfg.EvalMode, cfg.SharedCache)
	if err != nil {
		return RankReport{}, fmt.Errorf("parallel: rank %d: %w", c.Rank(), err)
	}
	// A store shared with other ranks or replicates may then move the
	// rank's pairs out of its probed table, or retire its IDs, once nothing
	// holds them.
	defer ev.Release()

	// EvalFull keeps the decoded table and one opponents buffer, sized for
	// the rank's largest degree and refilled from the table for each SSet.
	var opponents []strategy.Strategy
	// Every broadcast mutant is decoded into scratch.  An evaluator's table
	// keeps the registry's canonical copy, interned from it; the EvalFull
	// table keeps a clone (see below).
	scratch := strategy.NewPure(cfg.MemorySteps)
	if ev != nil {
		table = nil
	} else {
		deg := 0
		for id := lo; id < hi; id++ {
			deg = max(deg, graph.Degree(id))
		}
		opponents = make([]strategy.Strategy, deg)
	}

	rec.Lap(trace.PhaseCompute)

	// Resumed runs continue at the checkpointed absolute generation start;
	// the offset keeps the per-(generation, SSet) noise streams aligned
	// with what an uninterrupted run would draw.
	for gen := 0; gen < cfg.Generations; gen++ {
		// Mark the epoch (and give an installed fault plan its per-generation
		// crash point) before any choreography of the generation runs.
		if err := c.FaultPoint(start + gen); err != nil {
			return RankReport{}, err
		}

		// Phase 1: receive the pairwise-comparison selection first so the
		// rank can skip the game play on idle generations when configured to.
		sel, err := c.Bcast(0, nil)
		if err != nil {
			return RankReport{}, err
		}
		rec.Lap(trace.PhaseComm)
		pcOK, teacher, learner := decodeSelection(sel)

		// Phase 2: local game play (the dominant compute).  The evaluator
		// replays only pairs never seen before (or, incrementally, reads
		// maintained row sums); EvalFull replays every game, fanned out over
		// the rank's workers.
		if !cfg.SkipFitnessWhenIdle || pcOK {
			for li := range fit {
				id := lo + li
				if ev != nil {
					if fit[li], err = ev.Fitness(id); err != nil {
						return RankReport{}, err
					}
					continue
				}
				opps := opponents[:graph.Degree(id)]
				for k := range opps {
					opps[k] = table[graph.Neighbor(id, k)]
				}
				var src *rng.Source
				if cfg.Noise > 0 {
					src = rng.New(mixSeed(cfg.Seed, start+gen, id))
				}
				if fit[li], err = fitness.PlayAll(engine, table[id], opps, cfg.WorkersPerRank, src); err != nil {
					return RankReport{}, err
				}
				games += int64(len(opps))
			}
		}
		rec.Lap(trace.PhaseCompute)

		// Phase 3: return fitness for selected SSets.
		if pcOK && teacher >= lo && teacher < hi {
			if err := sendFitness(c, tagFitnessTeacher, fit[teacher-lo]); err != nil {
				return RankReport{}, err
			}
		}
		if pcOK && learner >= lo && learner < hi {
			if err := sendFitness(c, tagFitnessLearner, fit[learner-lo]); err != nil {
				return RankReport{}, err
			}
		}

		// Phase 4: receive and apply the strategy-table update.  Applying
		// it is compute: EvalIncremental maintains its rows here.
		upBuf, err := c.Bcast(0, nil)
		if err != nil {
			return RankReport{}, err
		}
		rec.Lap(trace.PhaseComm)
		update, err := decodeUpdate(upBuf, cfg.NumSSets, scratch)
		if err != nil {
			return RankReport{}, err
		}
		if update.mutation && ev == nil {
			// The table outlives scratch's next decode.
			update.targetStrategy = scratch.Clone()
		}
		if err := applyUpdate(update, table, ev); err != nil {
			return RankReport{}, err
		}
		ev.EndGeneration()
		rec.Lap(trace.PhaseCompute)
	}

	if ev != nil {
		games = ev.Cache().Misses()
	}
	rep := RankReport{
		Rank:        c.Rank(),
		LocalSSets:  hi - lo,
		GamesPlayed: games,
		Compute:     rec.Total(trace.PhaseCompute),
		Comm:        rec.Total(trace.PhaseComm),
		CommStats:   c.Stats(),
	}
	rep.Metrics.AddEngine(engine.KernelStats())
	rep.Metrics.AddCache(ev.Cache())
	return rep, nil
}

// applyUpdate installs a broadcast strategy-table update: through an SSet
// rank's fitness evaluator when it has one, otherwise on the plain table
// (the Nature Agent's, or an EvalFull SSet rank's decoded copy), one write
// per changed index.  An adoption shares the teacher's strategy value,
// which is safe because a strategy is never modified after construction,
// and lets the evaluator copy the teacher's interned ID instead of
// re-interning.
func applyUpdate(u updateMessage, table []strategy.Strategy, ev *fitness.Evaluator) error {
	if ev != nil {
		if u.learning {
			if err := ev.Adopt(u.learner, u.teacher); err != nil {
				return err
			}
		}
		if u.mutation {
			return ev.Apply(u.target, u.targetStrategy)
		}
		return nil
	}
	if u.learning {
		table[u.learner] = table[u.teacher]
	}
	if u.mutation {
		table[u.target] = u.targetStrategy
	}
	return nil
}

// sendFitness returns the relative fitness of a selected SSet to the Nature
// Agent.
func sendFitness(c *mpi.Comm, tag int, fitness float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], floatBits(fitness))
	return c.Send(0, tag, buf[:])
}

// recvFitness receives the relative fitness rank from returns under tag.
func recvFitness(c *mpi.Comm, from, tag int) (float64, error) {
	buf, err := c.Recv(from, tag)
	if err != nil {
		return 0, err
	}
	return decodeFitness(buf, from, tag)
}
