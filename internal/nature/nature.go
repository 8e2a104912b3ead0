// Package nature implements the Nature Agent of the paper (Section IV-E):
// the master entity that drives the population dynamics.  Each generation it
// may trigger a pairwise-comparison (PC) learning event, in which two
// randomly selected Strategy Sets compare fitness and the learner adopts the
// teacher's strategy according to the configured update rule (the paper's
// Fermi function by default; see internal/dynamics for the rule registry),
// and a mutation event, in which a randomly selected Strategy Set is
// assigned a freshly generated random strategy.  The Nature Agent also
// keeps the event counters, which the paper's rank 0 writes to disk.  The
// strategy table itself is the engine's: an intern.Table in the serial
// engine and on the cached SSet ranks, a plain slice on rank 0 and the
// EvalFull SSet ranks.
package nature

import (
	"fmt"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
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
// counters, stamped with the exporting engine and label.  An engine with
// streams of its own appends them.  Resume installs the state into a fresh
// agent of the same Config, which then replays exactly the events an
// uninterrupted agent would have produced from gen onward — the property
// the checkpoint/resume subsystem is built on.
func (a *Agent) Snapshot(id checkpoint.Identity, gen int, table []strategy.Strategy, engine, label string) checkpoint.Snapshot {
	return checkpoint.Snapshot{
		Generation:  gen,
		Seed:        id.Seed,
		MemorySteps: id.MemorySteps,
		Game:        id.Game,
		Payoff:      id.Payoff,
		UpdateRule:  id.UpdateRule,
		Topology:    id.Topology,
		Strategies:  table,
		Label:       label,
		Resume:      true,
		Engine:      engine,
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
	st, ok := snap.Stream(checkpoint.StreamNature)
	if !ok {
		return fmt.Errorf("nature: resume checkpoint is missing the %q stream", checkpoint.StreamNature)
	}
	if err := a.src.SetState(st); err != nil {
		return fmt.Errorf("nature: restoring RNG state: %w", err)
	}
	a.generations = snap.Generation
	a.pcEvents = snap.PCEvents
	a.adoptions = snap.Adoptions
	a.mutations = snap.Mutations
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
