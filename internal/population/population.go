// Package population implements the serial (single-process) evolutionary
// game dynamics engine: a population of Strategy Sets evolving under
// pairwise-comparison learning and mutation driven by the Nature Agent.
//
// The serial engine is the scientific reference implementation: the parallel
// engine of internal/parallel reproduces exactly the same dynamics (same
// seed, same sequence of events, same strategy-table history) while
// distributing the game play across ranks and worker goroutines.  It is also
// the engine behind the Figure 2 validation study (emergence of Win-Stay
// Lose-Shift).
package population

import (
	"context"
	"fmt"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/nature"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Config describes a population simulation.  Every run plays on the
// paper's optimized state and payoff kernels (see Config.EngineConfig).
type Config struct {
	// NumSSets is the number of Strategy Sets (the paper's validation run
	// uses 5,000).
	NumSSets int
	// AgentsPerSSet is the number of agents per Strategy Set (the paper's
	// validation run uses 4 agents per SSet: 20,000 agents / 5,000 SSets).
	AgentsPerSSet int
	// MemorySteps is the memory depth of the strategies (1..6).
	MemorySteps int
	// Rounds is the number of IPD rounds per game (paper: 200).
	Rounds int
	// Noise is the per-move error probability (Section III-F).
	Noise float64
	// Game selects the scenario played (payoff matrix + validity
	// constraints); the zero value is the paper's IPD spec, which keeps
	// legacy configurations bit-identical.  See game.LookupSpec for the
	// registry of built-in scenarios.
	Game game.Spec
	// UpdateRule selects how a learner decides to adopt a teacher's
	// strategy; nil is the paper's Fermi pairwise-comparison rule.  See
	// dynamics.Lookup for the registry of built-in rules.
	UpdateRule dynamics.Rule
	// Topology selects the interaction graph: which SSets meet in game play
	// (fitness is the summed payoff against graph neighbors only) and which
	// pairs the Nature Agent can select for learning.  The zero value is the
	// paper's well-mixed population, bit-identical per seed to the
	// pre-topology engine.  The graph is built deterministically from Seed;
	// see topology.Parse for the registry of built-in families.
	Topology topology.Spec
	// PCRate, MutationRate and Beta configure the Nature Agent; zero values
	// select the paper's defaults (0.1, 0.05, β=1).
	PCRate       float64
	MutationRate float64
	Beta         float64
	// Seed seeds all randomness; runs with the same Config are identical.
	Seed uint64
	// Workers is validated (negative values are rejected) but bounds
	// nothing: the serial engine evaluates fitness on the calling goroutine
	// in every mode and never fans game play out to workers.
	Workers int
	// EvalMode selects the fitness evaluation.  The zero value,
	// fitness.EvalFull, evaluates the two SSets of each pairwise-comparison
	// event afresh, playing each distinct strategy pair of the event once
	// (the paper's Section IV-A redundancy reduction); EvalCached memoizes
	// each distinct strategy pair across generations, and EvalIncremental
	// additionally maintains per-SSet fitness sums with row/column
	// invalidation (see fitness.Evaluator).  Noisy or mixed populations
	// transparently fall back to the EvalFull path so that all three modes
	// stay bit-for-bit identical for a given seed.
	EvalMode fitness.EvalMode
	// Kernel selects the deterministic-game inner loop; the zero value,
	// game.KernelAuto, closes the joint-state cycle in closed form whenever
	// that is bit-exact, and game.KernelFullReplay forces the
	// round-by-round reference loop.  All kernel modes produce identical
	// trajectories per seed.
	Kernel game.KernelMode
	// InitialStrategies optionally fixes the initial strategy of each SSet;
	// it must have exactly NumSSets entries.  When nil, every SSet starts
	// with an independent uniformly random pure strategy, as in the paper's
	// validation study.
	InitialStrategies []strategy.Strategy
	// SampleEvery controls how often abundance samples are recorded (in
	// generations).  Zero disables periodic sampling; a sample is always
	// taken at the end of the run.
	SampleEvery int
	// CheckpointPath, when non-empty, makes Run write a resumable (format
	// v4) checkpoint of the final state; combined with CheckpointEvery it
	// also receives the periodic mid-run checkpoints.  Resume continues a
	// run from such a file bit-identically.
	CheckpointPath string
	// CheckpointEvery writes a mid-run checkpoint to CheckpointPath every
	// this many generations (0 disables periodic checkpointing).  Each
	// write atomically replaces the previous one.
	CheckpointEvery int
	// CheckpointLabel is recorded as the checkpoint's free-form Label.
	CheckpointLabel string
	// Resume, when non-nil, continues the run captured by the snapshot
	// instead of starting fresh: the strategy table and the generation
	// counter come from the checkpoint, and — for a resumable serial-engine
	// snapshot — the Nature Agent's stream and event counters, the game
	// stream and the game counter are restored, so running N more
	// generations produces exactly what an uninterrupted run would have.  A
	// final-only snapshot (pre-v4, or written without resume state) warm
	// starts from its table with the streams fresh from Seed.  The
	// snapshot's identity (shape, seed, game, rule, topology) must match
	// the Config, and InitialStrategies must be nil.
	Resume *checkpoint.Snapshot
	// SharedCache, when non-nil, makes the run evaluate fitness through a
	// view over the given cache's store instead of a private PairCache, so
	// independent runs of the same configuration (ensemble replicates) share
	// one interning registry and one memoized pair table.  It only takes
	// effect when the run would build a cache anyway (EvalMode != EvalFull
	// and the noiseless/deterministic gate holds); the noise and mixed-
	// strategy bypasses ignore it, so RNG streams never move and every run
	// stays bit-identical per seed to the same run with a private cache.
	// The cache must be bound to the identical game (same spec, payoff,
	// rounds and memory depth) or New fails.
	SharedCache *fitness.PairCache
	// Faults optionally installs a deterministic fault plan on the run:
	// the serial engine is the fault model's rank 0, so crash events
	// scheduled for rank 0 fire at the matching generation and abort Run
	// with a *faults.CrashError (drop/delay events are meaningless without
	// a fabric and never fire here).  Nil runs fault-free.  The supervisor
	// (internal/supervise) classifies injected crashes as transient and
	// resumes from the latest checkpoint.
	Faults *faults.Plan
}

// validate checks the fields only the serial engine has; nature.Start
// checks the ones both engines share.
func (c Config) validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("population: Workers must be non-negative, got %d (0 selects GOMAXPROCS)", c.Workers)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("population: SampleEvery must be non-negative, got %d", c.SampleEvery)
	}
	return nil
}

// EngineConfig is the game engine configuration a run with this Config
// plays on.  The serial engine always runs the paper's optimized kernel
// settings of Figure 3: the O(1) rolling state code ("Compiler") and the
// fused payoff look-up ("Instruction").  The original linear state search
// and branching accumulation stay reachable only through the distributed
// engine's optimization levels, which is what the Figure 3 ablation
// measures.
func (c Config) EngineConfig() game.EngineConfig {
	return game.EngineConfig{
		Game:        c.Game,
		Rounds:      c.Rounds,
		MemorySteps: c.MemorySteps,
		Noise:       c.Noise,
		Kernel:      c.Kernel,
	}
}

// AbundanceSample records the composition of the population at one
// generation.
type AbundanceSample struct {
	Generation int
	// Distinct is the number of distinct strategies present.
	Distinct int
	// TopStrategy is the String rendering of the most abundant strategy and
	// TopFraction the fraction of SSets holding it.
	TopStrategy string
	TopFraction float64
	// WSLSFraction and TFTFraction are the fractions of SSets holding the
	// canonical WSLS / TFT strategy for the configured memory depth;
	// AllDFraction likewise for always-defect.
	WSLSFraction float64
	TFTFraction  float64
	AllDFraction float64
	// MeanDefectingStates is the mean fraction of states in which the
	// population's strategies prescribe defection (a coarse cooperativity
	// measure over the whole strategy table).
	MeanDefectingStates float64
}

// Result summarises a completed run.
type Result struct {
	// Generations is the number of generations simulated.
	Generations int
	// FinalStrategies is the strategy table at the end of the run.
	FinalStrategies []strategy.Strategy
	// Samples holds the periodic abundance samples (the last entry is always
	// the final generation).
	Samples []AbundanceSample
	// NatureStats counts the evolutionary events that occurred.
	NatureStats nature.Stats
	// TotalGamesPlayed counts two-player IPD games executed by the fitness
	// evaluations.
	TotalGamesPlayed int64
	// Metrics is the run's flat observability export: cache counters,
	// kernel-mode mix and nature events (see fitness.Metrics).
	Metrics fitness.Metrics
}

// Model is an in-progress population simulation.  It is not safe for
// concurrent use.
type Model struct {
	cfg    Config
	engine *game.Engine
	graph  topology.Graph
	nat    *nature.Agent
	// table is the run's one strategy table: the evaluator's in the cached
	// modes, one over a private registry on the EvalFull path.
	table *intern.Table
	src   *rng.Source
	gen   int
	games int64
	// ev evaluates fitness in the EvalCached / EvalIncremental modes; it is
	// nil when the model runs on the EvalFull path (including the
	// noise/mixed-strategy bypass).
	ev *fitness.Evaluator
	// pairs is the per-event distinct-pair cache of the EvalFull path; its
	// rows are sized from the table's registry.
	pairs pairRows
	// classics holds WSLS, TFT and AllD at the run's memory depth, built
	// by the first Sample; defects[id] is one more than the defecting
	// states of the pure strategy behind id, 0 until Sample counts them.
	classics []strategy.Strategy
	defects  intern.Pages[int32]
}

// New validates the configuration and builds a Model ready to run.
func New(cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	run, err := nature.Start(nature.Run{
		Name: "population", Engine: checkpoint.EngineSerial,
		NumSSets: cfg.NumSSets, AgentsPerSSet: cfg.AgentsPerSSet, MemorySteps: cfg.MemorySteps, Rounds: cfg.Rounds,
		Seed: cfg.Seed, Game: cfg.Game, Topology: cfg.Topology, EvalMode: cfg.EvalMode, Kernel: cfg.Kernel,
		InitialStrategies: cfg.InitialStrategies, Resume: cfg.Resume,
		CheckpointPath: cfg.CheckpointPath, CheckpointEvery: cfg.CheckpointEvery, CheckpointLabel: cfg.CheckpointLabel,
		Nature: nature.Config{PCRate: cfg.PCRate, MutationRate: cfg.MutationRate, Beta: cfg.Beta, Rule: cfg.UpdateRule},
	})
	if err != nil {
		return nil, err
	}
	engine, err := game.NewEngine(cfg.EngineConfig())
	if err != nil {
		return nil, err
	}
	// A store passed in is shared with other runs; the model is one run of
	// one evaluator on it.
	ev, err := fitness.NewEvaluator(engine, run.Graph, run.Table, 0, cfg.NumSSets, cfg.EvalMode, cfg.SharedCache.ForRun(1, true))
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	src, err := run.Stream(checkpoint.StreamGame)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	m := &Model{cfg: cfg, engine: engine, graph: run.Graph, nat: run.Agent, src: src, gen: run.Generation, ev: ev}
	if snap := cfg.Resume; snap != nil && snap.Resume {
		m.games = snap.GamesPlayed
	}
	if ev != nil {
		m.table = ev.Table()
		m.defects = intern.NewPages[int32](ev.Cache().Interner())
	} else {
		// The EvalFull path identifies the event's distinct pairs by
		// interned ID, so its per-event cache is dense rows indexed by ID.
		m.pairs.reg = intern.NewRegistry()
		if m.table, err = intern.NewTable(m.pairs.reg, run.Table); err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
	}
	return m, nil
}

// Snapshot exports the model's mid-run state as a resumable (format v4)
// checkpoint: the Nature Agent's part (typed strategy table, stream and
// event counters) plus the game-play stream and game counter.  A Model
// built with the snapshot as Config.Resume continues the run
// bit-identically.
func (m *Model) Snapshot() checkpoint.Snapshot {
	snap := m.nat.Snapshot(m.gen, m.Strategies())
	snap.Streams = append(snap.Streams, checkpoint.Stream{Name: checkpoint.StreamGame, State: m.src.State()})
	snap.GamesPlayed = m.games
	return snap
}

// Generation returns the number of generations simulated so far.
func (m *Model) Generation() int { return m.gen }

// Strategies returns a snapshot of the current strategy table.
func (m *Model) Strategies() []strategy.Strategy { return m.table.Strategies() }

// Release tells a pair store shared with other runs (Config.SharedCache)
// that this model's strategies are no longer held, so it may move their
// pairs out of its probed table.  Call it once the model is finished; the
// model must not step again.  It does nothing on the EvalFull path.
func (m *Model) Release() { m.ev.Release() }

// GamesPlayed returns the number of IPD games executed so far.  In the
// cached evaluation modes every game runs through the pair cache, so the
// count is the cache's miss counter: each miss plays its game once.
func (m *Model) GamesPlayed() int64 {
	if m.ev != nil {
		return m.ev.Cache().Misses()
	}
	return m.games
}

// fitnessPair evaluates the relative fitness of the two SSets selected for a
// pairwise comparison.  Each SSet's fitness is the summed payoff of its
// strategy against the strategies of its topology neighbors (every other
// SSet in the population for the default well-mixed graph).
//
// On the EvalFull path each distinct strategy pair of the event is played
// once and its result reused across SSets that hold identical strategies,
// through the event's dense pair rows (see pairRows).  Both SSets' missing
// pairs are collected first — teacher's, then learner's — and played in one
// batch; the sums then run teacher first.  That reproduces, bit for bit,
// evaluating the teacher completely before the learner starts.
func (m *Model) fitnessPair(a, b int) (float64, float64, error) {
	if m.ev != nil {
		fa, err := m.ev.Fitness(a)
		if err != nil {
			return 0, 0, err
		}
		fb, err := m.ev.Fitness(b)
		if err != nil {
			return 0, 0, err
		}
		return fa, fb, nil
	}
	p := &m.pairs
	p.begin(m.table.ID(a), m.table.ID(b))
	p.reserve(m.graph.Degree(a), m.graph.Degree(b))
	m.collect(0, a)
	m.collect(1, b)
	if n := p.misses; n > 0 {
		var srcs []*rng.Source
		if p.needSrcs {
			srcs = p.srcPtrs[:n]
		}
		if err := m.engine.PlayPairs(p.missFocal[:n], p.missOpps[:n], srcs, p.results[:n]); err != nil {
			return 0, 0, err
		}
		m.games += int64(n)
	}
	return m.sum(0, a), m.sum(1, b), nil
}

// neighbourIDs returns the interned IDs of SSet i's neighbours in
// neighbour order, as two runs.  On the complete graph they are the table's
// dense ID slice on either side of i, with no Graph call; otherwise they
// are side's buffer, which pass 1 fills.
func (m *Model) neighbourIDs(side, i int) (lo, hi []uint32) {
	if m.graph.Complete() {
		all := m.table.IDs()
		return all[:i], all[i+1:]
	}
	return m.pairs.ids[side][:m.graph.Degree(i)], nil
}

// collect is pass 1 of the evaluation of focal SSet i (side 0 for the
// teacher, 1 for the learner): it queues the distinct pairs missing from
// the SSet's row, in first-encounter order, splitting each miss's
// randomness in exactly the order the one-game-at-a-time loop used to — the
// split order is what keeps the trajectory bit-identical.
func (m *Model) collect(side, i int) {
	p := &m.pairs
	if !m.graph.Complete() {
		ids := p.ids[side][:m.graph.Degree(i)]
		for k := range ids {
			ids[k] = m.table.ID(m.graph.Neighbor(i, k))
		}
	}
	lo, hi := m.neighbourIDs(side, i)
	stamp := p.stamp[p.row(m.table.ID(i))]
	cached, queued := p.epoch, p.epoch+1
	for k, oppID := range lo {
		if st := stamp[oppID]; st != cached && st != queued {
			m.queue(side, i, k, oppID)
		}
	}
	for k, oppID := range hi {
		if st := stamp[oppID]; st != cached && st != queued {
			m.queue(side, i, len(lo)+k, oppID)
		}
	}
}

// queue adds focal SSet i's game against its k-th neighbour, of strategy
// oppID, to the event's batch.
func (m *Model) queue(side, i, k int, oppID uint32) {
	p := &m.pairs
	my, myID := m.table.Get(i), m.table.ID(i)
	opp := m.table.Get(m.graph.Neighbor(i, k))
	n := p.misses
	p.srcPtrs[n] = nil
	if m.engine.Noise() > 0 || !my.Deterministic() || !opp.Deterministic() {
		m.src.SplitInto(&p.srcs[n])
		p.srcPtrs[n] = &p.srcs[n]
		p.needSrcs = true
	}
	p.missFocal[n], p.missOpps[n] = my, opp
	r := p.row(myID)
	p.stamp[r][oppID], p.queue[r][oppID] = p.epoch+1, int32(n)
	p.misses++
	// The teacher's pass 2 fills the learner's entry for the teacher's
	// strategy from this game's FitnessB, so the learner must not queue it.
	if side == 0 && p.row(oppID) == 1 {
		p.stamp[1][myID] = p.epoch + 1
	}
}

// sum is pass 2 of the evaluation of focal SSet i: it replays the
// one-game-at-a-time loop's probe/fill order with the plays precomputed,
// summing in neighbour order.  Filling forward then reverse at the first
// encounter — not up front — matters for the noisy self-pair (another SSet
// holding the focal strategy): its entry is its own reverse, so the first
// occurrence must see FitnessA while later occurrences see the FitnessB
// overwrite, exactly as the serial loop did.
func (m *Model) sum(side, i int) float64 {
	lo, hi := m.neighbourIDs(side, i)
	myID := m.table.ID(i)
	return m.sumRun(myID, hi, m.sumRun(myID, lo, 0))
}

// sumRun adds focal strategy myID's payoffs against the strategies ids to
// total, in order.
func (m *Model) sumRun(myID uint32, ids []uint32, total float64) float64 {
	p := &m.pairs
	r := p.row(myID)
	stamp, payoff, queue := p.stamp[r], p.payoff[r], p.queue[r]
	cached, queued := p.epoch, p.epoch+1
	for _, oppID := range ids {
		v := payoff[oppID]
		if stamp[oppID] == queued {
			res := p.results[queue[oppID]]
			v = res.FitnessA
			stamp[oppID], payoff[oppID] = cached, v
			// The reverse pairing gives the opponent's payoff; keep it when
			// the opponent is a focal strategy of this event, since the
			// partner SSet is summed next.
			if rr := p.row(oppID); rr >= 0 {
				p.stamp[rr][myID], p.payoff[rr][myID] = cached, res.FitnessB
			}
		}
		total += v
	}
	return total
}

// applyStrategyChange installs strategy s for SSet idx (a mutation):
// through the evaluator in the cached modes, which keeps its rows current
// with the table.
func (m *Model) applyStrategyChange(idx int, s strategy.Strategy) error {
	if m.ev != nil {
		return m.ev.Apply(idx, s)
	}
	_, err := m.table.Set(idx, s)
	return err
}

// adopt copies SSet teacher's strategy to SSet learner: the table copies
// the teacher's interned ID and shares its strategy value.
func (m *Model) adopt(learner, teacher int) error {
	if m.ev != nil {
		return m.ev.Adopt(learner, teacher)
	}
	_, err := m.table.Adopt(learner, teacher)
	return err
}

// Step advances the simulation by one generation: a possible
// pairwise-comparison learning event followed by a possible mutation, with
// strategy-table updates applied immediately, as in the paper's Nature Agent
// loop.
func (m *Model) Step() error {
	// Pairwise comparison learning.
	if teacher, learner, ok := m.nat.MaybeSelectPC(m.cfg.NumSSets); ok {
		fitT, fitL, err := m.fitnessPair(teacher, learner)
		if err != nil {
			return fmt.Errorf("population: generation %d: %w", m.gen, err)
		}
		adopted, _ := m.nat.DecideAdoption(fitT, fitL)
		m.nat.RecordPC(adopted)
		if adopted {
			if err := m.adopt(learner, teacher); err != nil {
				return err
			}
		}
	}
	// Mutation.
	if target, newStrat, ok := m.nat.MaybeMutation(m.cfg.NumSSets); ok {
		if err := m.applyStrategyChange(target, newStrat); err != nil {
			return err
		}
	}
	m.nat.EndGeneration()
	m.gen++
	return nil
}

// Sample computes an abundance sample for the current generation from the
// table's counts, one entry per distinct interned strategy.  It never
// interns, so sampling cannot renumber the strategies a run goes on to
// draw.
func (m *Model) Sample() AbundanceSample {
	t, mem := m.table, m.cfg.MemorySteps
	if m.classics == nil {
		m.classics = []strategy.Strategy{strategy.WSLS(mem), strategy.TFT(mem), strategy.AllD(mem)}
	}
	n := float64(t.Len())
	s := AbundanceSample{
		Generation:   m.gen,
		Distinct:     len(t.Present()),
		WSLSFraction: float64(t.CountOf(m.classics[0])) / n,
		TFTFraction:  float64(t.CountOf(m.classics[1])) / n,
		AllDFraction: float64(t.CountOf(m.classics[2])) / n,
	}
	topCount, totalStates, defecting := 0, 0, 0
	for _, id := range t.Present() {
		c := t.Count(id)
		topCount = max(topCount, c)
		if p, ok := t.Strategy(id).(*strategy.Pure); ok {
			totalStates += c * p.NumStates()
			defecting += c * m.defections(id, p)
		}
	}
	// Ties at the top go to the smallest rendering; only the winner is
	// rendered.
	var top strategy.Strategy
	for _, id := range t.Present() {
		if t.Count(id) == topCount {
			if c := t.Strategy(id); top == nil || rendersBefore(c, top) {
				top = c
			}
		}
	}
	s.TopStrategy = top.String()
	s.TopFraction = float64(topCount) / n
	if totalStates > 0 {
		s.MeanDefectingStates = float64(defecting) / float64(totalStates)
	}
	return s
}

// defections returns p.DefectionCount() for p, the strategy behind id,
// counting the move table once per ID.
func (m *Model) defections(id uint32, p *strategy.Pure) int {
	d := m.defects.At(id)
	if *d == 0 {
		*d = int32(p.DefectionCount()) + 1
	}
	return int(*d) - 1
}

// rendersBefore reports whether a's String sorts before b's.  Pure move
// tables of one depth render as '0'/'1' strings of one length, state 0
// first, so the lowest state where they differ decides, and the table
// that cooperates there (a clear bit, '0') comes first; they are compared
// word by word without rendering.  Any other pair compares renderings.
func rendersBefore(a, b strategy.Strategy) bool {
	pa, okA := a.(*strategy.Pure)
	pb, okB := b.(*strategy.Pure)
	if !okA || !okB || pa.MemorySteps() != pb.MemorySteps() {
		return a.String() < b.String()
	}
	wb := pb.Words()
	for k, w := range pa.Words() {
		if d := w ^ wb[k]; d != 0 {
			return w&(d&-d) == 0
		}
	}
	return false
}

// Run advances the simulation by generations generations (or until ctx is
// cancelled) and returns the result.  Run may be called repeatedly; each
// call continues from the current state.  On error the Result still
// carries the samples recorded so far (with Generations at the reached
// value), so a supervisor can stitch the trajectory across a recovered
// failure; all other Result fields are left zero.
func (m *Model) Run(ctx context.Context, generations int) (Result, error) {
	if generations < 0 {
		return Result{}, fmt.Errorf("population: negative generation count %d", generations)
	}
	var samples []AbundanceSample
	partial := func() Result {
		return Result{Generations: m.gen, Samples: samples}
	}
	snap := func(int) checkpoint.Snapshot { return m.Snapshot() }
	for g := 0; g < generations; g++ {
		select {
		case <-ctx.Done():
			return partial(), ctx.Err()
		default:
		}
		// The serial engine is the fault model's rank 0: a crash event
		// scheduled for (rank 0, generation m.gen) fires here, before the
		// generation runs, exactly like the distributed fault points.
		if err := m.cfg.Faults.Crash(0, m.gen); err != nil {
			return partial(), err
		}
		if err := m.Step(); err != nil {
			return partial(), err
		}
		if m.cfg.SampleEvery > 0 && m.gen%m.cfg.SampleEvery == 0 {
			samples = append(samples, m.Sample())
		}
		if err := m.nat.Checkpoint(m.gen, false, snap); err != nil {
			return partial(), err
		}
	}
	if len(samples) == 0 || samples[len(samples)-1].Generation != m.gen {
		samples = append(samples, m.Sample())
	}
	if err := m.nat.Checkpoint(m.gen, true, snap); err != nil {
		return partial(), err
	}
	return Result{
		Generations:      m.gen,
		FinalStrategies:  m.Strategies(),
		Samples:          samples,
		NatureStats:      m.nat.Stats(),
		TotalGamesPlayed: m.GamesPlayed(),
		Metrics:          m.Metrics(),
	}, nil
}

// NatureStats exposes the Nature Agent's event counters for callers that
// drive the model step by step.
func (m *Model) NatureStats() nature.Stats { return m.nat.Stats() }

// Metrics returns the run's flat observability counters: pair-cache
// traffic, the kernel-mode mix (including batch-lane occupancy) and the
// Nature Agent's event counts.
func (m *Model) Metrics() fitness.Metrics {
	st := m.nat.Stats()
	met := fitness.Metrics{
		Generations: m.gen,
		PCEvents:    st.PCEvents,
		Adoptions:   st.Adoptions,
		Mutations:   st.Mutations,
	}
	met.AddEngine(m.engine.KernelStats())
	met.AddCache(m.ev.Cache())
	return met
}
