// Package nature implements the Nature Agent of the paper (Section IV-E):
// the master entity that drives the population dynamics.  Each generation it
// may trigger a pairwise-comparison (PC) learning event, in which two
// randomly selected Strategy Sets compare fitness and the learner adopts the
// teacher's strategy according to the configured update rule (the paper's
// Fermi function by default; see internal/dynamics for the rule registry),
// and a mutation event, in which a randomly selected Strategy Set is
// assigned a freshly generated random strategy.  The Nature Agent also
// keeps the event counters, which the paper's rank 0 writes to disk.
//
// The agent also owns every engine's run lifecycle (Start): the validation
// of the fields the engines share, the layout of the seed's random
// streams, the initial strategy table, the run identity a checkpoint
// records and the checkpoint cadence.  The strategy table itself is the
// engine's: an intern.Table in the serial engine and on the cached SSet
// ranks, a plain slice on rank 0 and the EvalFull SSet ranks.
package nature

import (
	"fmt"
	"math"
	"slices"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// DefaultPCRate is the paper's pairwise-comparison rate (10% per generation).
const DefaultPCRate = 0.1

// DefaultMutationRate is the paper's mutation rate µ = 0.05.
const DefaultMutationRate = 0.05

// DefaultBeta is the selection intensity used when the configuration leaves
// it zero.  The paper uses a "high rate of selection"; β = 1 with payoffs
// summed over 200 rounds behaves as near-deterministic selection while still
// exercising the Fermi function.
const DefaultBeta = 1.0

// Config holds the Nature Agent's parameters.
type Config struct {
	// PCRate is the per-generation probability of a pairwise-comparison
	// learning event.  Defaults to DefaultPCRate if zero; set to a negative
	// value to disable learning entirely.
	PCRate float64
	// MutationRate is the per-generation probability of a mutation event
	// (µ in the paper).  Defaults to DefaultMutationRate if zero; set to a
	// negative value to disable mutation.
	MutationRate float64
	// Beta is the selection intensity of the Fermi function.  Defaults to
	// DefaultBeta if zero.
	Beta float64
	// MemorySteps is the memory depth of the uniformly random pure
	// strategies mutations generate.
	MemorySteps int
	// Rule is the update rule applied when a learner compares fitness with a
	// teacher.  Nil selects the paper's Fermi pairwise-comparison rule,
	// which keeps the agent's random stream bit-identical to the
	// pre-registry implementation.
	Rule dynamics.Rule
	// Topology restricts pairwise-comparison partner selection to graph
	// neighbors: the teacher is drawn uniformly from the population and the
	// learner uniformly from the teacher's neighborhood.  Nil or a complete
	// graph selects the well-mixed draw of the paper, which consumes the
	// identical random stream (one bounded draw from S, one from S-1), so
	// well-mixed runs stay bit-identical per seed to the pre-topology agent.
	Topology topology.Graph
}

func (c Config) withDefaults() (Config, error) {
	// NaN fails every comparison below, so it would run as a silent zero
	// rate (or, for Beta, as a rule that never adopts).  An infinite Beta
	// makes the Fermi probability of a fitness tie NaN, so a tie would
	// never adopt.
	switch {
	case math.IsNaN(c.PCRate):
		return c, fmt.Errorf("nature: PCRate must be a number, got NaN")
	case math.IsNaN(c.MutationRate):
		return c, fmt.Errorf("nature: MutationRate must be a number, got NaN")
	case math.IsNaN(c.Beta) || math.IsInf(c.Beta, 0):
		return c, fmt.Errorf("nature: Beta must be a finite number, got %v", c.Beta)
	}
	if c.PCRate == 0 {
		c.PCRate = DefaultPCRate
	}
	if c.PCRate < 0 {
		c.PCRate = 0
	}
	if c.MutationRate == 0 {
		c.MutationRate = DefaultMutationRate
	}
	if c.MutationRate < 0 {
		c.MutationRate = 0
	}
	if c.Beta == 0 {
		c.Beta = DefaultBeta
	}
	if c.Beta < 0 {
		return c, fmt.Errorf("nature: beta must be non-negative, got %v", c.Beta)
	}
	if c.PCRate > 1 {
		return c, fmt.Errorf("nature: PC rate %v exceeds 1", c.PCRate)
	}
	if c.MutationRate > 1 {
		return c, fmt.Errorf("nature: mutation rate %v exceeds 1", c.MutationRate)
	}
	if c.MemorySteps < 1 || c.MemorySteps > 6 {
		return c, fmt.Errorf("nature: memory steps %d out of range [1,6]", c.MemorySteps)
	}
	if c.Rule == nil {
		c.Rule = dynamics.Fermi()
	}
	return c, nil
}

// Agent is the Nature Agent.  It owns the randomness that drives the
// population dynamics, so two Agents constructed with the same seed and
// configuration replay the same sequence of events.
type Agent struct {
	cfg Config
	src *rng.Source

	generations int
	pcEvents    int
	adoptions   int
	mutations   int

	// run, its identity, the generation last saved and the first failed
	// save are the run's checkpoint state, set by Start.
	run       Run
	id        checkpoint.Identity
	lastSaved int
	saveErr   error
}

// Run describes one engine run as the Nature Agent owns its lifecycle:
// the paper's rank 0 sets up the population, drives every event and
// writes the records to disk (Section IV-E).  Each engine maps its
// configuration onto a Run and gets the rest from Start.
type Run struct {
	// Name is the engine's package name, which prefixes every error;
	// Engine is the checkpoint.Engine* name its snapshots record.
	Name, Engine string
	// The remaining fields mean what they do in the engines' configs.
	NumSSets, AgentsPerSSet, MemorySteps, Rounds int
	Seed                                         uint64
	Game                                         game.Spec
	Topology                                     topology.Spec
	EvalMode                                     fitness.EvalMode
	Kernel                                       game.KernelMode
	InitialStrategies                            []strategy.Strategy
	Resume                                       *checkpoint.Snapshot
	CheckpointPath, CheckpointLabel              string
	CheckpointEvery                              int
	// Nature configures the agent; Start sets its MemorySteps and Topology.
	Nature Config
}

func (r Run) validate() error {
	if r.NumSSets < 2 {
		return fmt.Errorf("%s: need at least 2 SSets, got %d", r.Name, r.NumSSets)
	}
	if r.AgentsPerSSet < 1 {
		return fmt.Errorf("%s: agents per SSet must be positive, got %d", r.Name, r.AgentsPerSSet)
	}
	if r.MemorySteps < 1 || r.MemorySteps > game.MaxMemorySteps {
		return fmt.Errorf("%s: memory steps %d out of range [1,%d]", r.Name, r.MemorySteps, game.MaxMemorySteps)
	}
	if r.Rounds <= 0 {
		return fmt.Errorf("%s: rounds must be positive, got %d", r.Name, r.Rounds)
	}
	if r.InitialStrategies != nil && len(r.InitialStrategies) != r.NumSSets {
		return fmt.Errorf("%s: %d initial strategies for %d SSets", r.Name, len(r.InitialStrategies), r.NumSSets)
	}
	if !r.EvalMode.Valid() {
		return fmt.Errorf("%s: invalid eval mode %v", r.Name, r.EvalMode)
	}
	if !r.Kernel.Valid() {
		return fmt.Errorf("%s: invalid kernel mode %v", r.Name, r.Kernel)
	}
	if r.CheckpointEvery < 0 {
		return fmt.Errorf("%s: CheckpointEvery must be non-negative, got %d", r.Name, r.CheckpointEvery)
	}
	if r.CheckpointEvery > 0 && r.CheckpointPath == "" {
		return fmt.Errorf("%s: CheckpointEvery requires CheckpointPath", r.Name)
	}
	if r.Resume != nil && r.InitialStrategies != nil {
		return fmt.Errorf("%s: Resume takes the strategy table from the checkpoint; InitialStrategies must be nil", r.Name)
	}
	return nil
}

// checkPure checks that every entry of table, the run's initial or resumed
// strategy table, is a pure strategy of the run's memory depth.  The
// engines evolve the paper's pure move tables only: mutation draws pure
// ones and learning copies present ones, so with a pure initial table
// noise alone decides whether a game needs randomness and whether its
// result can be memoized.
func (r Run) checkPure(table []strategy.Strategy) error {
	for i, s := range table {
		p, ok := s.(*strategy.Pure)
		switch {
		case s == nil || ok && p == nil:
			return fmt.Errorf("%s: strategy table entry %d is nil", r.Name, i)
		case !ok:
			return fmt.Errorf("%s: strategy table entry %d is a %T, not a pure strategy", r.Name, i, s)
		case p.MemorySteps() != r.MemorySteps:
			return fmt.Errorf("%s: strategy table entry %d has memory %d, want %d", r.Name, i, p.MemorySteps(), r.MemorySteps)
		}
	}
	return nil
}

// Setup is a started run, as Start hands it to the engine.
type Setup struct {
	Agent *Agent
	// Graph is the interaction graph, built from the seed directly (not
	// from a stream), so the topology layer moves no pre-topology stream.
	Graph topology.Graph
	// Table is the initial strategy table, the engine's own copy: the
	// resume snapshot's, else InitialStrategies, else a uniformly random
	// pure strategy per SSet drawn from the init stream.  Every entry is a
	// *strategy.Pure of the run's memory depth.
	Table []strategy.Strategy
	// Generation is the absolute generation the run starts at: the resume
	// snapshot's, else 0.
	Generation int

	root   *rng.Source
	resume *checkpoint.Snapshot
}

// Start validates the run and sets it up.  rng.New(Seed) is split into the
// agent's stream, then the init stream; the engine splits its own streams
// after that (see Setup.Stream).  A resume snapshot's identity is checked
// against the run's, and a resumable one continues the agent's stream and
// counters; a final-only one warm starts from its table with the streams
// fresh from Seed.  A table entry that is not a pure strategy of the run's
// memory depth fails the run, named by its index.
func Start(r Run) (Setup, error) {
	if err := r.validate(); err != nil {
		return Setup{}, err
	}
	id := checkpoint.NewIdentity(r.NumSSets, r.MemorySteps, r.Seed, r.Game, r.Nature.Rule, r.Topology)
	s := Setup{Table: r.InitialStrategies, resume: r.Resume, root: rng.New(r.Seed)}
	if snap := r.Resume; snap != nil {
		if err := snap.CheckIdentity(r.Engine, id); err != nil {
			return Setup{}, err
		}
		s.Table, s.Generation = snap.Strategies, snap.Generation
	}
	if err := r.checkPure(s.Table); err != nil {
		return Setup{}, err
	}
	var err error
	if s.Graph, err = r.Topology.Build(r.NumSSets, r.Seed); err != nil {
		return Setup{}, err
	}
	cfg := r.Nature
	cfg.MemorySteps, cfg.Topology = r.MemorySteps, s.Graph
	if s.Agent, err = New(cfg, s.root.Split()); err != nil {
		return Setup{}, err
	}
	r.InitialStrategies, r.Resume = nil, nil
	s.Agent.run, s.Agent.id, s.Agent.lastSaved = r, id, -1
	if err := s.Agent.Resume(s.resume); err != nil {
		return Setup{}, fmt.Errorf("%s: %w", r.Name, err)
	}
	initSrc := s.root.Split()
	if s.Table == nil {
		s.Table = make([]strategy.Strategy, r.NumSSets)
		for i := range s.Table {
			s.Table[i] = strategy.RandomPure(r.MemorySteps, initSrc)
		}
	} else {
		s.Table = slices.Clone(s.Table)
	}
	return s, nil
}

// Stream splits the engine's next stream from the seed's and, when the run
// resumes a resumable snapshot, continues it from the snapshot's stream
// called name.
func (s Setup) Stream(name string) (*rng.Source, error) {
	src := s.root.Split()
	if s.resume == nil || !s.resume.Resume {
		return src, nil
	}
	return src, restore(s.resume, name, src)
}

// restore sets src to the state of snap's stream called name.
func restore(snap *checkpoint.Snapshot, name string, src *rng.Source) error {
	st, ok := snap.Stream(name)
	if !ok {
		return fmt.Errorf("nature: resume checkpoint is missing the %q stream", name)
	}
	if err := src.SetState(st); err != nil {
		return fmt.Errorf("nature: restoring the %q stream: %w", name, err)
	}
	return nil
}

// New validates the configuration and returns a Nature Agent using the
// given random source.
func New(cfg Config, src *rng.Source) (*Agent, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("nature: nil rng source")
	}
	return &Agent{cfg: full, src: src}, nil
}

// MaybeSelectPC decides whether a pairwise-comparison event occurs this
// generation and, if so, selects the teacher and learner SSets: uniformly
// at random (distinct) in a well-mixed population, or — under a structured
// topology — a uniform teacher with the learner drawn uniformly from the
// teacher's neighborhood.  On regular graphs (ring, torus, well-mixed)
// every ordered pair of linked SSets is equally likely, matching the
// well-mixed draw restricted to edges; on irregular graphs (small-world
// after rewiring) higher-degree SSets are proportionally more likely to
// appear in the learner role.  numSSets must be at least 2 for an event to
// occur.
func (a *Agent) MaybeSelectPC(numSSets int) (teacher, learner int, ok bool) {
	if numSSets < 2 || !a.src.Bool(a.cfg.PCRate) {
		return 0, 0, false
	}
	if g := a.cfg.Topology; g != nil && !g.Complete() {
		t := a.src.Intn(numSSets)
		deg := g.Degree(t)
		if deg < 1 {
			return 0, 0, false
		}
		return t, g.Neighbor(t, a.src.Intn(deg)), true
	}
	t, l, err := a.src.Pair(numSSets)
	if err != nil {
		return 0, 0, false
	}
	return t, l, true
}

// DecideAdoption applies the configured update rule to the reported fitness
// values and returns whether the learner adopts the teacher's strategy,
// along with the adoption probability that was used.
//
// Under the default Fermi rule the paper's pseudo code gates adoption on the
// teacher having strictly higher fitness and then applies the Fermi
// probability; the standard pairwise-comparison process of Traulsen et al.
// (the paper's reference [13]) applies the Fermi probability directly, which
// permits occasional adoption of a worse strategy and reduces to the gated
// behaviour as β → ∞.  We follow the standard process.
func (a *Agent) DecideAdoption(fitnessTeacher, fitnessLearner float64) (adopted bool, prob float64) {
	return a.cfg.Rule.Adopt(a.src, a.cfg.Beta, fitnessTeacher, fitnessLearner)
}

// RecordPC updates the Nature Agent's counters for a completed
// pairwise-comparison event.
func (a *Agent) RecordPC(adopted bool) {
	a.pcEvents++
	if adopted {
		a.adoptions++
	}
}

// MaybeMutation decides whether a mutation occurs this generation and, if
// so, selects the target SSet and generates its new strategy.
func (a *Agent) MaybeMutation(numSSets int) (target int, strat strategy.Strategy, ok bool) {
	if numSSets < 1 || !a.src.Bool(a.cfg.MutationRate) {
		return 0, nil, false
	}
	a.mutations++
	return a.src.Intn(numSSets), strategy.RandomPure(a.cfg.MemorySteps, a.src), true
}

// EndGeneration marks the end of one generation; used only for statistics.
func (a *Agent) EndGeneration() { a.generations++ }

// Snapshot exports the agent's part of a resumable (format v4) checkpoint
// at generation gen: the run identity, the strategy table, the agent's
// random stream as checkpoint.StreamNature and its cumulative event
// counters, stamped with the run's engine and label.  An engine with
// streams of its own appends them.  Resume installs the state into a fresh
// agent of the same Config, which then replays exactly the events an
// uninterrupted agent would have produced from gen onward — the property
// the checkpoint/resume subsystem is built on.
func (a *Agent) Snapshot(gen int, table []strategy.Strategy) checkpoint.Snapshot {
	id, r := a.id, &a.run
	return checkpoint.Snapshot{
		Generation:  gen,
		Seed:        id.Seed,
		MemorySteps: id.MemorySteps,
		Game:        id.Game,
		Payoff:      id.Payoff,
		UpdateRule:  id.UpdateRule,
		Topology:    id.Topology,
		Strategies:  table,
		Label:       r.CheckpointLabel,
		Resume:      true,
		Engine:      r.Engine,
		Streams:     []checkpoint.Stream{{Name: checkpoint.StreamNature, State: a.src.State()}},
		PCEvents:    a.pcEvents,
		Adoptions:   a.adoptions,
		Mutations:   a.mutations,
	}
}

// Resume installs the Nature Agent's state from a resume snapshot: its
// random stream and event counters, with the generation counter at the
// snapshot's.  A nil or final-only snapshot (Resume false) leaves the
// fresh agent as it is, so the run warm starts from the snapshot's table.
// It returns an error if the stream is missing or invalid.
func (a *Agent) Resume(snap *checkpoint.Snapshot) error {
	if snap == nil || !snap.Resume {
		return nil
	}
	if err := restore(snap, checkpoint.StreamNature, a.src); err != nil {
		return err
	}
	a.generations = snap.Generation
	a.pcEvents = snap.PCEvents
	a.adoptions = snap.Adoptions
	a.mutations = snap.Mutations
	return nil
}

// Checkpoint writes snap(gen) to the run's CheckpointPath when the cadence
// calls for a save at absolute generation gen: periodically at every
// multiple of CheckpointEvery, and at the end of a run (final), unless
// the last periodic save already captured gen — that snapshot would be
// byte-identical.  snap is only called to save.  The first failed save is
// kept: no later checkpoint is written and every later call returns the
// failure, so an engine whose ranks must finish the generation's
// choreography can go on and report it at the final call.
func (a *Agent) Checkpoint(gen int, final bool, snap func(gen int) checkpoint.Snapshot) error {
	r := &a.run
	if a.saveErr != nil || r.CheckpointPath == "" {
		return a.saveErr
	}
	due := r.CheckpointEvery > 0 && gen%r.CheckpointEvery == 0
	if final {
		due = a.lastSaved != gen
	}
	if !due {
		return nil
	}
	if err := checkpoint.Save(r.CheckpointPath, snap(gen)); err != nil {
		a.saveErr = fmt.Errorf("%s: generation %d: %w", r.Name, gen, err)
		return a.saveErr
	}
	a.lastSaved = gen
	return nil
}

// Stats summarises the events the Nature Agent has driven so far.
type Stats struct {
	Generations int
	PCEvents    int
	Adoptions   int
	Mutations   int
}

// Stats returns the agent's event counters.
func (a *Agent) Stats() Stats {
	return Stats{
		Generations: a.generations,
		PCEvents:    a.pcEvents,
		Adoptions:   a.adoptions,
		Mutations:   a.mutations,
	}
}
