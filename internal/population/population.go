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
	"slices"

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
	// invalidation (see fitness.Evaluator).  A noisy run transparently
	// falls back to the EvalFull path so that all three modes stay
	// bit-for-bit identical for a given seed.
	EvalMode fitness.EvalMode
	// Kernel selects the deterministic-game inner loop; the zero value,
	// game.KernelAuto, closes the joint-state cycle in closed form whenever
	// that is bit-exact, and game.KernelFullReplay forces the
	// round-by-round reference loop.  All kernel modes produce identical
	// trajectories per seed.
	Kernel game.KernelMode
	// InitialStrategies optionally fixes the initial strategy of each SSet;
	// it must have exactly NumSSets entries, each a *strategy.Pure of
	// depth MemorySteps (see nature.Start).  When nil, every SSet starts
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
	// effect when the run memoizes (see fitness.Memoizes); EvalFull and the
	// noise bypass ignore it, so RNG streams never move and every run stays
	// bit-identical per seed to the same run with a private cache.
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
		return fmt.Errorf("population: Workers must be non-negative, got %d (its value is otherwise unused: the serial engine plays every game on the calling goroutine)", c.Workers)
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
	// evaluations.  A resumed EvalFull run counts from the checkpoint's
	// total; a resumed run in the cached modes counts only the games its
	// fresh pair store played, including pairs the interrupted run had
	// already played (see GamesPlayed).
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
	// nil when the model runs on the EvalFull path (including the noise
	// bypass).
	ev *fitness.Evaluator
	// pairs is the per-event distinct-pair cache of the EvalFull path; its
	// rows are indexed by present position.
	pairs pairRows
	// byCount is set on the EvalFull path on the complete graph with
	// integer payoffs (fitness.DeltaExact): an event reads the table's
	// present strategies, counts and first holders instead of walking the
	// neighbours.
	byCount bool
	// retires is set on the EvalFull path from memory fitness.RetireFrom
	// up: an ID the table vacates is retired at once, since nothing else
	// holds the private registry's IDs.
	retires bool
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
		// Noise alone decides whether its games draw randomness.
		m.pairs.reg, m.pairs.noisy = intern.NewRegistry(), cfg.Noise > 0
		m.retires = cfg.MemorySteps >= fitness.RetireFrom
		m.byCount = run.Graph.Complete() && fitness.DeltaExact(engine)
		if m.table, err = intern.NewTable(m.pairs.reg, run.Table); err != nil {
			return nil, fmt.Errorf("population: %w", err)
		}
		m.defects = intern.NewPages[int32](m.pairs.reg)
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
// count is the cache's miss counter: each miss plays its game once.  The
// cache starts empty on a resume and the snapshot records no count for it,
// which keeps a resumed cached run's checkpoints byte-identical to the
// uninterrupted run's.
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
//
// On the complete graph with integer payoffs (byCount) neither pass walks
// the neighbours: collect and sum read the table's present strategies,
// their counts and their first holders, O(k) for k distinct strategies
// instead of O(S).  Elsewhere both passes walk the neighbour list.
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
	p.begin(m.table, a, b)
	if m.byCount {
		p.reserve(2 * len(m.table.Present()))
		m.collectPresent(0, a)
		m.collectPresent(1, b)
	} else {
		p.reserve(m.graph.Degree(a) + m.graph.Degree(b))
		m.collect(0, a)
		m.collect(1, b)
	}
	if n := p.misses; n > 0 {
		var srcs []*rng.Source
		if p.noisy {
			srcs = p.srcPtrs[:n]
		}
		if err := m.engine.PlayPairs(p.missFocal[:n], p.missOpps[:n], srcs, p.results[:n]); err != nil {
			return 0, 0, err
		}
		m.games += int64(n)
	}
	if m.byCount {
		return p.sumPresent(m.table, 0), p.sumPresent(m.table, 1), nil
	}
	return p.sumRun(0, p.pos[0][:m.graph.Degree(a)]), p.sumRun(1, p.pos[1][:m.graph.Degree(b)]), nil
}

// collect is pass 1 of the evaluation of focal SSet i (side 0 for the
// teacher, 1 for the learner) on the neighbour-scan path: it records the
// present positions of the SSet's neighbours in side's buffer and queues
// the distinct pairs missing from the SSet's row, in first-encounter
// order, splitting each miss's randomness in exactly the order the
// one-game-at-a-time loop used to — the split order is what keeps the
// trajectory bit-identical.
func (m *Model) collect(side, i int) {
	p, t := &m.pairs, m.table
	deg := m.graph.Degree(i)
	if len(p.pos[side]) < deg {
		p.pos[side] = make([]uint32, deg)
	}
	pos := p.pos[side][:deg]
	for k := range pos {
		pos[k] = uint32(t.Pos(t.ID(m.graph.Neighbor(i, k))))
	}
	stamp := p.stamp[p.row(p.focal[side])]
	cached, queued := p.epoch, p.epoch+1
	for k, opp := range pos {
		if st := stamp[opp]; st != cached && st != queued {
			m.queue(side, i, m.graph.Neighbor(i, k), opp)
		}
	}
}

// collectPresent is collect on the complete graph, where SSet i's
// neighbours are every other SSet in index order: a strategy is first
// encountered at its lowest holder other than i, so the missing strategies
// are queued in that order without walking the neighbours.  Only the focal
// strategy's own key needs a scan when i is its first holder: the next
// holder after i.
func (m *Model) collectPresent(side, i int) {
	p, t := &m.pairs, m.table
	stamp := p.stamp[p.row(p.focal[side])]
	cached, queued := p.epoch, p.epoch+1
	p.order = p.order[:0]
	for k, id := range t.Present() {
		if st := stamp[k]; st == cached || st == queued {
			continue
		}
		first := t.First(id)
		if first == i {
			if t.Count(id) == 1 {
				continue // SSet i is its strategy's only holder: no self-pair
			}
			ids := t.IDs()
			for first++; ids[first] != id; first++ {
			}
		}
		p.order = append(p.order, uint64(first)<<32|uint64(k))
	}
	slices.Sort(p.order)
	for _, key := range p.order {
		m.queue(side, i, int(key>>32), uint32(key))
	}
}

// queue adds focal SSet i's game against SSet j, whose strategy is at
// present position opp, to the event's batch.
func (m *Model) queue(side, i, j int, opp uint32) {
	p := &m.pairs
	myPos := p.focal[side]
	n := p.misses
	if p.noisy {
		m.src.SplitInto(&p.srcs[n])
		p.srcPtrs[n] = &p.srcs[n]
	}
	p.missFocal[n], p.missOpps[n] = m.table.Get(i), m.table.Get(j)
	r := p.row(myPos)
	p.stamp[r][opp], p.queue[r][opp] = p.epoch+1, int32(n)
	p.misses++
	// The teacher's pass 2 fills the learner's entry for the teacher's
	// strategy from this game's FitnessB, so the learner must not queue it.
	if side == 0 && p.row(opp) == 1 {
		p.stamp[1][myPos] = p.epoch + 1
	}
}

// take returns focal strategy myPos's payoff against the strategy at
// position opp from row r, resolving a queued entry: it caches the game's
// FitnessA and fills the reverse pairing's FitnessB into the opponent's row
// when the opponent is a focal strategy of this event, since the partner
// SSet is summed next.  For the self-pair that reverse is this row's own
// entry, so a second read sees FitnessB.
func (p *pairRows) take(r int, myPos, opp uint32) float64 {
	if p.stamp[r][opp] == p.epoch+1 {
		res := p.results[p.queue[r][opp]]
		p.stamp[r][opp], p.payoff[r][opp] = p.epoch, res.FitnessA
		if rr := p.row(opp); rr >= 0 {
			p.stamp[rr][myPos], p.payoff[rr][myPos] = p.epoch, res.FitnessB
		}
		return res.FitnessA
	}
	return p.payoff[r][opp]
}

// sumRun is pass 2 of the evaluation of side's focal SSet on the
// neighbour-scan path: it replays the one-game-at-a-time loop's probe/fill
// order with the plays precomputed, summing the payoffs against the
// neighbours at present positions pos in neighbour order.  Filling forward
// then reverse at the first encounter — not up front — matters for the
// noisy self-pair (another SSet holding the focal strategy): its entry is
// its own reverse, so the first occurrence sees FitnessA while later
// occurrences see the FitnessB overwrite, exactly as the serial loop did.
func (p *pairRows) sumRun(side int, pos []uint32) float64 {
	myPos := p.focal[side]
	r, total := p.row(myPos), 0.0
	for _, opp := range pos {
		total += p.take(r, myPos, opp)
	}
	return total
}

// sumPresent is sumRun on the complete graph with integer payoffs: each
// strategy present in t weighted by the number of SSets other than the
// focal one holding it.  Every payoff and partial sum
// is an integer below 2⁵³, so the sum equals the neighbour-order sum bit
// for bit.  The noisy self-pair keeps its rule: when it was queued in this
// row, its first holder contributes FitnessA and every other FitnessB.
func (p *pairRows) sumPresent(t *intern.Table, side int) float64 {
	myPos := p.focal[side]
	r, total := p.row(myPos), 0.0
	for k, id := range t.Present() {
		c := t.Count(id)
		if uint32(k) != myPos {
			total += float64(c) * p.take(r, myPos, uint32(k))
		} else if c > 1 {
			// The focal SSet is one of the c holders.  After the first read
			// the entry holds the reverse payoff.
			total += p.take(r, myPos, uint32(k)) + float64(c-2)*p.payoff[r][k]
		}
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
	ch, err := m.table.Set(idx, s)
	m.retire(ch)
	return err
}

// adopt copies SSet teacher's strategy to SSet learner: the table copies
// the teacher's interned ID and shares its strategy value.
func (m *Model) adopt(learner, teacher int) error {
	if m.ev != nil {
		return m.ev.Adopt(learner, teacher)
	}
	ch, err := m.table.Adopt(learner, teacher)
	m.retire(ch)
	return err
}

// retire retires the ID the EvalFull table change ch vacated, if any, so
// the private registry keeps the strategies present, not every one the
// run has drawn.  A vacated strategy that returns gets a fresh ID; the
// per-event pair rows never carry an ID from one event to the next.
func (m *Model) retire(ch intern.Change) {
	if m.retires && ch.Vacated >= 0 {
		m.pairs.reg.Retire(ch.Old)
	}
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
		p := t.Strategy(id).(*strategy.Pure)
		totalStates += c * p.NumStates()
		defecting += c * m.defections(id, p)
	}
	// Ties at the top go to the smallest rendering; only the winner is
	// rendered.
	var top *strategy.Pure
	for _, id := range t.Present() {
		if t.Count(id) == topCount {
			if c := t.Strategy(id).(*strategy.Pure); top == nil || rendersBefore(c, top) {
				top = c
			}
		}
	}
	s.TopStrategy = top.String()
	s.TopFraction = float64(topCount) / n
	s.MeanDefectingStates = float64(defecting) / float64(totalStates)
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
// word by word without rendering.
func rendersBefore(a, b *strategy.Pure) bool {
	wb := b.Words()
	for k, w := range a.Words() {
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
