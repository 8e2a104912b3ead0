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
	"evogame/internal/sset"
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
	// OptNonBlockingComm switches the fitness returns to non-blocking sends
	// (the paper's "Comm" level).
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

// nonBlocking reports whether fitness returns use non-blocking sends.
func (o OptLevel) nonBlocking() bool { return o >= OptNonBlockingComm }

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
	// WorkersPerRank bounds the worker goroutines each SSet rank fans its
	// EvalFull game play out to; the cached modes evaluate on the rank's
	// own goroutine.  Zero selects GOMAXPROCS (the default resolves in
	// sset.FitnessOptions.Workers); negative values are rejected.
	WorkersPerRank int

	// NumSSets, AgentsPerSSet, MemorySteps, Rounds and Noise describe the
	// population and the game, exactly as in population.Config.
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
	// NumSSets); when nil the table is drawn uniformly at random, matching
	// the serial engine's initialisation for the same Seed.
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
	// Noisy or mixed populations fall back to the EvalFull path, keeping
	// all modes bit-for-bit identical per seed.
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
	// builds for its own ranks (see NewSharedCache), so independent runs
	// of the same configuration (ensemble replicates) share one interning
	// registry and one memoized pair table too.  Either way a rank only
	// uses it when it would evaluate through a cache at all (EvalMode !=
	// EvalFull and the noiseless/deterministic gate holds); the noise and
	// mixed-strategy bypasses ignore it, so RNG streams never move and
	// every run stays bit-identical per seed whichever store it uses.  The
	// cache must be bound to the identical game (same spec, payoff, rounds
	// and memory depth) or the run fails.
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

// startGeneration returns the absolute generation the run begins at: zero
// for a fresh run, the checkpointed generation for a resumed one.  The
// absolute index matters beyond bookkeeping — the per-(generation, SSet)
// noise streams are derived from it, so a resumed noisy run replays the
// exact streams an uninterrupted run would use.
func (c Config) startGeneration() int {
	if c.Resume != nil {
		return c.Resume.Generation
	}
	return 0
}

func (c Config) validate() error {
	if c.Ranks < 2 {
		return fmt.Errorf("parallel: need at least 2 ranks (Nature + 1 SSet rank), got %d", c.Ranks)
	}
	if c.NumSSets < 2 {
		return fmt.Errorf("parallel: need at least 2 SSets, got %d", c.NumSSets)
	}
	if c.NumSSets < c.Ranks-1 {
		return fmt.Errorf("parallel: %d SSets cannot occupy %d SSet ranks", c.NumSSets, c.Ranks-1)
	}
	if c.AgentsPerSSet < 1 {
		return fmt.Errorf("parallel: agents per SSet must be positive, got %d", c.AgentsPerSSet)
	}
	if c.MemorySteps < 1 || c.MemorySteps > game.MaxMemorySteps {
		return fmt.Errorf("parallel: memory steps %d out of range [1,%d]", c.MemorySteps, game.MaxMemorySteps)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("parallel: rounds must be positive, got %d", c.Rounds)
	}
	if c.WorkersPerRank < 0 {
		return fmt.Errorf("parallel: WorkersPerRank must be non-negative, got %d (0 selects GOMAXPROCS)", c.WorkersPerRank)
	}
	if c.Generations < 0 {
		return fmt.Errorf("parallel: negative generation count %d", c.Generations)
	}
	if c.InitialStrategies != nil && len(c.InitialStrategies) != c.NumSSets {
		return fmt.Errorf("parallel: %d initial strategies for %d SSets", len(c.InitialStrategies), c.NumSSets)
	}
	if !c.EvalMode.Valid() {
		return fmt.Errorf("parallel: invalid eval mode %v", c.EvalMode)
	}
	if !c.Kernel.Valid() {
		return fmt.Errorf("parallel: invalid kernel mode %v", c.Kernel)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("parallel: CheckpointEvery must be non-negative, got %d", c.CheckpointEvery)
	}
	if c.CommDeadline < 0 {
		return fmt.Errorf("parallel: CommDeadline must be non-negative, got %v", c.CommDeadline)
	}
	if c.CheckpointEvery > 0 && c.CheckpointPath == "" {
		return fmt.Errorf("parallel: CheckpointEvery requires CheckpointPath")
	}
	if c.Resume != nil {
		if c.InitialStrategies != nil {
			return fmt.Errorf("parallel: Resume takes the strategy table from the checkpoint; InitialStrategies must be nil")
		}
		if err := c.checkResumeIdentity(); err != nil {
			return err
		}
	}
	return nil
}

// checkResumeIdentity verifies that the Resume snapshot was produced by a
// run with the same identity as the Config, via the shared
// checkpoint.Identity comparison, plus the engine match for resumable
// snapshots.
func (c Config) checkResumeIdentity() error {
	snap := c.Resume
	id := checkpoint.NewIdentity(c.NumSSets, c.MemorySteps, c.Seed, c.Game, c.UpdateRule, c.Topology)
	if err := snap.CheckIdentity("parallel", id); err != nil {
		return err
	}
	if snap.Resume && snap.Engine != checkpoint.EngineParallel {
		return fmt.Errorf("parallel: checkpoint carries %q-engine resume state; the parallel engine cannot restore it", snap.Engine)
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

	// Every SSet rank of the run evaluates through a view over one store,
	// so a pair any rank has played is never played again by another.
	if cfg.SharedCache == nil {
		var err error
		if cfg.SharedCache, err = NewSharedCache(cfg); err != nil {
			return Result{}, err
		}
	}

	reports := make([]RankReport, cfg.Ranks)
	var finalTable []strategy.Strategy
	var natStats nature.Stats

	err := mpi.RunWithOptions(cfg.Ranks, mpi.Options{
		Injector: cfg.Faults,
		Deadline: cfg.CommDeadline,
	}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			table, stats, rep, err := natureRank(c, cfg)
			if err != nil {
				return err
			}
			finalTable = table
			natStats = stats
			reports[0] = rep
			return nil
		}
		rep, err := ssetRank(c, cfg)
		if err != nil {
			return err
		}
		reports[c.Rank()] = rep
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	res := Result{
		FinalStrategies: finalTable,
		Generations:     cfg.startGeneration() + cfg.Generations,
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

// NewSharedCache returns an empty pair cache bound to the game cfg plays,
// for Config.SharedCache, or nil when no SSet rank of cfg evaluates through
// one: EvalFull or a noisy game.  Run builds one per run when
// Config.SharedCache is nil; an ensemble builds one for all its replicates.
func NewSharedCache(cfg Config) (*fitness.PairCache, error) {
	if cfg.EvalMode == fitness.EvalFull || cfg.Noise != 0 {
		return nil, nil
	}
	eng, err := game.NewEngine(game.EngineConfig{
		Game:        cfg.Game,
		Rounds:      cfg.Rounds,
		MemorySteps: cfg.MemorySteps,
		Kernel:      cfg.Kernel,
	})
	if err != nil {
		return nil, err
	}
	return fitness.NewPairCache(eng)
}

// natureRank runs the Nature Agent on rank 0: it owns the authoritative
// strategy table, selects the evolutionary events, and broadcasts updates.
func natureRank(c *mpi.Comm, cfg Config) ([]strategy.Strategy, nature.Stats, RankReport, error) {
	rec := trace.NewRecorder()
	// Built from the seed directly (not from the root stream), so the
	// topology layer leaves the nature/init streams — and therefore every
	// pre-topology trajectory — untouched.
	graph, err := cfg.Topology.Build(cfg.NumSSets, cfg.Seed)
	if err != nil {
		return nil, nature.Stats{}, RankReport{}, err
	}
	root := rng.New(cfg.Seed)
	natSrc := root.Split()
	initSrc := root.Split()

	nat, err := nature.New(nature.Config{
		PCRate:       cfg.PCRate,
		MutationRate: cfg.MutationRate,
		Beta:         cfg.Beta,
		MemorySteps:  cfg.MemorySteps,
		Rule:         cfg.UpdateRule,
		Topology:     graph,
	}, natSrc)
	if err != nil {
		return nil, nature.Stats{}, RankReport{}, err
	}

	start := cfg.startGeneration()
	var ckptErr error
	lastSaved := -1
	initial := cfg.InitialStrategies
	switch {
	case cfg.Resume != nil:
		// The table continues from the checkpoint.  For a resumable
		// parallel-engine snapshot the Nature Agent's stream and counters are
		// restored too, making the continuation bit-identical; a final-only
		// snapshot warm starts with the fresh streams built above.
		initial = cfg.Resume.Strategies
		if cfg.Resume.Resume {
			natState, ok := cfg.Resume.Stream(checkpoint.StreamNature)
			if !ok {
				return nil, nature.Stats{}, RankReport{}, fmt.Errorf("parallel: resume checkpoint is missing the %q stream", checkpoint.StreamNature)
			}
			if err := nat.RestoreState(nature.State{
				RNG:         natState,
				Generations: cfg.Resume.Generation,
				PCEvents:    cfg.Resume.PCEvents,
				Adoptions:   cfg.Resume.Adoptions,
				Mutations:   cfg.Resume.Mutations,
			}); err != nil {
				return nil, nature.Stats{}, RankReport{}, fmt.Errorf("parallel: %w", err)
			}
		}
	case initial == nil:
		initial = make([]strategy.Strategy, cfg.NumSSets)
		for i := range initial {
			initial[i] = strategy.RandomPure(cfg.MemorySteps, initSrc)
		}
	}
	// Rank 0 needs no interned IDs, so its table is a plain slice: a
	// registry here would keep every mutant the run ever draws.  Strategies
	// are immutable, so an adoption shares the teacher's value.
	table := append([]strategy.Strategy(nil), initial...)

	// Setup phase: broadcast the initial strategy table to all SSet ranks.
	payload, err := encodeTable(table)
	if err != nil {
		return nil, nature.Stats{}, RankReport{}, err
	}
	rec.Lap(trace.PhaseCompute)
	if _, err := c.Bcast(0, payload); err != nil {
		return nil, nature.Stats{}, RankReport{}, err
	}
	rec.Lap(trace.PhaseComm)

	for gen := 0; gen < cfg.Generations; gen++ {
		// Mark the epoch (and give an installed fault plan its per-generation
		// crash point) before any choreography of the generation runs.
		if err := c.FaultPoint(start + gen); err != nil {
			return nil, nature.Stats{}, RankReport{}, err
		}

		// Phase 1: pairwise-comparison selection broadcast.
		teacher, learner, pcOK := nat.MaybeSelectPC(cfg.NumSSets)
		sel := encodeSelection(pcOK, teacher, learner)
		rec.Lap(trace.PhaseCompute)
		if _, err := c.Bcast(0, sel); err != nil {
			return nil, nature.Stats{}, RankReport{}, err
		}

		// Phase 2: collect fitness from the owners of the selected SSets and
		// decide adoption.
		var tBuf, lBuf []byte
		if pcOK {
			teacherOwner, _ := blockOwner(teacher, cfg.NumSSets, cfg.Ranks)
			learnerOwner, _ := blockOwner(learner, cfg.NumSSets, cfg.Ranks)
			if tBuf, err = c.Recv(teacherOwner, tagFitnessTeacher); err != nil {
				return nil, nature.Stats{}, RankReport{}, err
			}
			if lBuf, err = c.Recv(learnerOwner, tagFitnessLearner); err != nil {
				return nil, nature.Stats{}, RankReport{}, err
			}
		}
		rec.Lap(trace.PhaseComm)
		var update updateMessage
		if pcOK {
			adopted, _ := nat.DecideAdoption(decodeFitness(tBuf), decodeFitness(lBuf))
			nat.RecordPC(adopted)
			if adopted {
				table[learner] = table[teacher]
				update.learning = true
				update.learner = learner
				update.teacher = teacher
			}
		}

		// Phase 3: mutation.
		if target, newStrat, ok := nat.MaybeMutation(cfg.NumSSets); ok {
			table[target] = newStrat
			update.mutation = true
			update.target = target
			update.targetStrategy = newStrat
		}

		// Phase 4: broadcast the strategy-table update.
		buf, err := encodeUpdate(update)
		if err != nil {
			return nil, nature.Stats{}, RankReport{}, err
		}
		rec.Lap(trace.PhaseCompute)
		if _, err := c.Bcast(0, buf); err != nil {
			return nil, nature.Stats{}, RankReport{}, err
		}
		rec.Lap(trace.PhaseComm)
		nat.EndGeneration()

		// A failed periodic save must NOT abort the loop: the SSet ranks are
		// blocked on the next phase-1 broadcast, and rank 0 returning early
		// would deadlock the whole fabric.  Record the first failure, stop
		// checkpointing, keep driving the protocol, and surface the error
		// after the choreography completes.
		if absGen := start + gen + 1; ckptErr == nil && cfg.CheckpointEvery > 0 && absGen%cfg.CheckpointEvery == 0 {
			if err := checkpoint.Save(cfg.CheckpointPath, natureSnapshot(cfg, nat, table, absGen)); err != nil {
				ckptErr = fmt.Errorf("parallel: generation %d: %w", absGen, err)
			} else {
				lastSaved = absGen
			}
		}
	}

	if ckptErr != nil {
		return nil, nature.Stats{}, RankReport{}, ckptErr
	}
	// Skip the final save when the last periodic write already captured the
	// final generation — the snapshot would be byte-identical.
	if final := start + cfg.Generations; cfg.CheckpointPath != "" && lastSaved != final {
		if err := checkpoint.Save(cfg.CheckpointPath, natureSnapshot(cfg, nat, table, final)); err != nil {
			return nil, nature.Stats{}, RankReport{}, err
		}
	}

	rec.Lap(trace.PhaseCompute)
	rep := RankReport{
		Rank:      0,
		Compute:   rec.Total(trace.PhaseCompute),
		Comm:      rec.Total(trace.PhaseComm),
		CommStats: c.Stats(),
	}
	return table, nat.Stats(), rep, nil
}

// natureSnapshot exports the Nature Agent's mid-run state at the given
// absolute generation as a resumable (format v4) checkpoint.  The table and
// the agent's stream are the complete resume state of a distributed run:
// the SSet ranks hold no persistent RNG streams — their noise sources are
// derived per (Seed, generation, SSet id) — so the recorded generation
// re-derives them exactly on resume.
func natureSnapshot(cfg Config, nat *nature.Agent, table []strategy.Strategy, absGen int) checkpoint.Snapshot {
	id := checkpoint.NewIdentity(cfg.NumSSets, cfg.MemorySteps, cfg.Seed, cfg.Game, cfg.UpdateRule, cfg.Topology)
	st := nat.ExportState()
	return checkpoint.Snapshot{
		Generation:  absGen,
		Seed:        id.Seed,
		MemorySteps: id.MemorySteps,
		Game:        id.Game,
		Payoff:      id.Payoff,
		UpdateRule:  id.UpdateRule,
		Topology:    id.Topology,
		Strategies:  table,
		Label:       cfg.CheckpointLabel,
		Resume:      true,
		Engine:      checkpoint.EngineParallel,
		Streams: []checkpoint.Stream{
			{Name: checkpoint.StreamNature, State: st.RNG},
		},
		PCEvents:  st.PCEvents,
		Adoptions: st.Adoptions,
		Mutations: st.Mutations,
	}
}

// ssetRank runs one Strategy-Set-owning rank: it plays the local games each
// generation, answers the Nature Agent's fitness requests, and applies the
// broadcast strategy-table updates.
func ssetRank(c *mpi.Comm, cfg Config) (RankReport, error) {
	rec := trace.NewRecorder()
	lo, hi := blockRange(c.Rank(), cfg.NumSSets, cfg.Ranks)

	// Each rank rebuilds the interaction graph deterministically from the
	// seed; it is identical on every rank and on the Nature Agent.
	graph, err := cfg.Topology.Build(cfg.NumSSets, cfg.Seed)
	if err != nil {
		return RankReport{}, err
	}

	engine, err := game.NewEngine(game.EngineConfig{
		Game:        cfg.Game,
		Rounds:      cfg.Rounds,
		MemorySteps: cfg.MemorySteps,
		Noise:       cfg.Noise,
		StateMode:   cfg.OptLevel.stateMode(),
		AccumMode:   cfg.OptLevel.accumMode(),
		Kernel:      cfg.OptLevel.kernelMode(cfg.Kernel),
	})
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
	// (nil on the EvalFull path, including the noise/mixed-strategy bypass),
	// kept coherent by applying the Nature Agent's broadcast strategy-table
	// updates to it.  Its table is then the rank's only copy of the global
	// table.
	ev, err := fitness.NewEvaluator(engine, graph, table, lo, hi, cfg.EvalMode, cfg.SharedCache)
	if err != nil {
		return RankReport{}, fmt.Errorf("parallel: rank %d: %w", c.Rank(), err)
	}
	// A store shared with other ranks or replicates may then move the
	// rank's pairs out of its probed table once nothing holds them.
	defer ev.Release()

	// EvalFull keeps the decoded table, the local SSets, and per-local-SSet
	// opponent buffers allocated once and refilled per generation: the
	// neighbor lists are static, only the strategies behind them change.
	var (
		locals    []*sset.SSet
		oppStrats [][]strategy.Strategy
	)
	if ev != nil {
		table = nil
	} else {
		for id := lo; id < hi; id++ {
			s, err := sset.New(id, cfg.AgentsPerSSet, table[id])
			if err != nil {
				return RankReport{}, err
			}
			locals = append(locals, s)
			oppStrats = append(oppStrats, make([]strategy.Strategy, graph.Degree(id)))
		}
	}

	rec.Lap(trace.PhaseCompute)

	// Resumed runs continue at the checkpointed absolute generation; the
	// offset keeps the per-(generation, SSet) noise streams aligned with
	// what an uninterrupted run would draw.
	start := cfg.startGeneration()
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
			if ev != nil {
				for li := range fit {
					if fit[li], err = ev.Fitness(lo + li); err != nil {
						return RankReport{}, err
					}
				}
			}
			for li, s := range locals {
				opponents := oppStrats[li]
				for k := range opponents {
					opponents[k] = table[graph.Neighbor(s.ID(), k)]
				}
				var src *rng.Source
				if cfg.Noise > 0 {
					src = rng.New(mixSeed(cfg.Seed, start+gen, s.ID()))
				}
				if fit[li], err = s.Fitness(engine, opponents, sset.FitnessOptions{
					Workers: cfg.WorkersPerRank,
					Source:  src,
				}); err != nil {
					return RankReport{}, err
				}
				games += int64(len(opponents))
			}
		}
		rec.Lap(trace.PhaseCompute)

		// Phase 3: return fitness for selected SSets.
		if pcOK && teacher >= lo && teacher < hi {
			if err := sendFitness(c, cfg.OptLevel, tagFitnessTeacher, fit[teacher-lo]); err != nil {
				return RankReport{}, err
			}
		}
		if pcOK && learner >= lo && learner < hi {
			if err := sendFitness(c, cfg.OptLevel, tagFitnessLearner, fit[learner-lo]); err != nil {
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
		update, err := decodeUpdate(upBuf, cfg.NumSSets)
		if err != nil {
			return RankReport{}, err
		}
		if err := applyUpdate(update, table, locals, ev, lo); err != nil {
			return RankReport{}, err
		}
		rec.Lap(trace.PhaseCompute)
	}

	if ev != nil {
		games = ev.Cache().Plays()
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

// applyUpdate installs a broadcast strategy-table update on an SSet rank:
// through the rank's fitness evaluator when it has one, otherwise on the
// rank's copy of the global table and the local SSet if this rank owns a
// changed index.  An adoption shares the teacher's strategy value, which
// is safe because a strategy is never modified after construction, and
// lets the evaluator copy the teacher's interned ID instead of
// re-interning.
func applyUpdate(u updateMessage, table []strategy.Strategy, locals []*sset.SSet, ev *fitness.Evaluator, lo int) error {
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
		if err := setStrategy(table, locals, lo, u.learner, table[u.teacher]); err != nil {
			return err
		}
	}
	if u.mutation {
		return setStrategy(table, locals, lo, u.target, u.targetStrategy)
	}
	return nil
}

// setStrategy points table entry idx, and the local SSet if this rank owns
// idx, at s.
func setStrategy(table []strategy.Strategy, locals []*sset.SSet, lo, idx int, s strategy.Strategy) error {
	table[idx] = s
	if li := idx - lo; li >= 0 && li < len(locals) {
		return locals[li].SetStrategy(s)
	}
	return nil
}

// sendFitness returns the relative fitness of a selected SSet to the Nature
// Agent, using a non-blocking send above the "Comm" optimization level.
func sendFitness(c *mpi.Comm, opt OptLevel, tag int, fitness float64) error {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(floatBits(fitness)))
	if opt.nonBlocking() {
		req := c.Isend(0, tag, buf)
		_, err := req.Wait()
		return err
	}
	return c.Send(0, tag, buf)
}
