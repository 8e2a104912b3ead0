// Package nature implements the Nature Agent of the paper (Section IV-E):
// the master entity that drives the population dynamics.  Each generation it
// may trigger a pairwise-comparison (PC) learning event, in which two
// randomly selected Strategy Sets compare fitness and the learner adopts the
// teacher's strategy according to the configured update rule (the paper's
// Fermi function by default; see internal/dynamics for the rule registry),
// and a mutation event, in which a randomly selected Strategy Set is
// assigned a freshly generated random strategy.  The Nature Agent also acts
// as the records keeper, maintaining the global strategy table and a history
// of every event, which is what the paper's rank 0 writes to disk.
package nature

import (
	"fmt"

	"evogame/internal/dynamics"
	"evogame/internal/intern"
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

// Fermi returns the probability that the learner adopts the teacher's
// strategy given their payoffs, p = 1 / (1 + exp(-β (πT - πL))) (Equation 1
// of the paper).  β = 0 gives 1/2 (random drift); β → ∞ approaches a step
// function that always adopts the better strategy.  It is the adoption
// probability of the default "fermi" update rule.
func Fermi(beta, payoffTeacher, payoffLearner float64) float64 {
	return dynamics.FermiProb(beta, payoffTeacher, payoffLearner)
}

// NewStrategyFunc generates the strategy assigned by a mutation event.
type NewStrategyFunc func(src *rng.Source) strategy.Strategy

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
	// MemorySteps is the memory depth of strategies generated by mutations.
	MemorySteps int
	// NewStrategy overrides the mutation generator; the default draws a
	// uniformly random pure strategy of MemorySteps memory.
	NewStrategy NewStrategyFunc
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
	if c.NewStrategy == nil {
		mem := c.MemorySteps
		c.NewStrategy = func(src *rng.Source) strategy.Strategy { return strategy.RandomPure(mem, src) }
	}
	if c.Rule == nil {
		c.Rule = dynamics.Fermi()
	}
	return c, nil
}

// PCEvent describes a pairwise-comparison learning event.
type PCEvent struct {
	Generation int
	// Teacher and Learner are the SSet indices selected by the Nature Agent.
	Teacher, Learner int
	// FitnessTeacher and FitnessLearner are the relative fitness values the
	// two SSets reported.
	FitnessTeacher, FitnessLearner float64
	// Prob is the Fermi adoption probability that was used.
	Prob float64
	// Adopted reports whether the learner adopted the teacher's strategy.
	Adopted bool
}

// MutationEvent describes a mutation event.
type MutationEvent struct {
	Generation int
	// Target is the SSet index that received a new strategy.
	Target int
	// Strategy is the newly generated strategy.
	Strategy strategy.Strategy
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

// Config returns the agent's effective configuration (with defaults filled
// in).
func (a *Agent) Config() Config { return a.cfg }

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
	return a.src.Intn(numSSets), a.cfg.NewStrategy(a.src), true
}

// EndGeneration marks the end of one generation; used only for statistics.
func (a *Agent) EndGeneration() { a.generations++ }

// State is the serializable mid-run state of a Nature Agent: the RNG stream
// that drives every evolutionary event plus the cumulative event counters.
// Exporting it at generation G and restoring it into a freshly constructed
// Agent with the same Config replays exactly the events an uninterrupted
// agent would have produced from generation G onward — the property the
// checkpoint/resume subsystem is built on.
type State struct {
	// RNG is the xoshiro256** state of the agent's random source.
	RNG [4]uint64
	// Generations, PCEvents, Adoptions and Mutations mirror Stats.
	Generations int
	PCEvents    int
	Adoptions   int
	Mutations   int
}

// ExportState captures the agent's mid-run state for a checkpoint.
func (a *Agent) ExportState() State {
	return State{
		RNG:         a.src.State(),
		Generations: a.generations,
		PCEvents:    a.pcEvents,
		Adoptions:   a.adoptions,
		Mutations:   a.mutations,
	}
}

// RestoreState installs a state previously captured with ExportState,
// overwriting the agent's RNG stream and event counters.  It returns an
// error if the RNG state is invalid.
func (a *Agent) RestoreState(st State) error {
	if err := a.src.SetState(st.RNG); err != nil {
		return fmt.Errorf("nature: restoring RNG state: %w", err)
	}
	a.generations = st.Generations
	a.pcEvents = st.PCEvents
	a.adoptions = st.Adoptions
	a.mutations = st.Mutations
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

// Table is the Nature Agent's record of the strategy assigned to every SSet
// (the global view all ranks must keep in sync).  It is a simple slice
// wrapper with copy-on-read helpers used by both the serial and parallel
// engines.  Binding a Table to an intern.Registry additionally tracks the
// dense interned ID of every entry, re-interning on each Set, so fitness
// evaluation can look pairs up by ID without ever re-encoding a strategy on
// the hot path.
type Table struct {
	strategies []strategy.Strategy
	reg        *intern.Registry // nil until Bind succeeds
	ids        []uint32
}

// NewTable builds a Table from an initial assignment.  Every entry must be
// non-nil.
func NewTable(initial []strategy.Strategy) (*Table, error) {
	if len(initial) == 0 {
		return nil, fmt.Errorf("nature: empty strategy table")
	}
	cp := make([]strategy.Strategy, len(initial))
	for i, s := range initial {
		if s == nil {
			return nil, fmt.Errorf("nature: nil strategy at index %d", i)
		}
		cp[i] = s
	}
	return &Table{strategies: cp}, nil
}

// Len returns the number of SSets in the table.
func (t *Table) Len() int { return len(t.strategies) }

// Get returns the strategy assigned to SSet i.
func (t *Table) Get(i int) strategy.Strategy { return t.strategies[i] }

// Set assigns strategy s to SSet i, re-interning it first when the table is
// bound to a registry so ID(i) stays current.
func (t *Table) Set(i int, s strategy.Strategy) error {
	if i < 0 || i >= len(t.strategies) {
		return fmt.Errorf("nature: SSet index %d out of range [0,%d)", i, len(t.strategies))
	}
	if s == nil {
		return fmt.Errorf("nature: nil strategy")
	}
	if t.reg != nil {
		id, err := t.reg.Intern(s)
		if err != nil {
			return fmt.Errorf("nature: %w", err)
		}
		t.ids[i] = id
	}
	t.strategies[i] = s
	return nil
}

// Bind interns every current entry into reg and keeps the per-SSet IDs
// current across future Sets.  Interning happens once per strategy-change
// event (O(events) over a run), which is what lets per-game fitness lookups
// stay free of strategy encoding.  It returns an error — leaving the table
// unbound — if any entry's implementation is outside the strategy codec.
func (t *Table) Bind(reg *intern.Registry) error {
	if reg == nil {
		return fmt.Errorf("nature: nil intern registry")
	}
	ids := make([]uint32, len(t.strategies))
	for i, s := range t.strategies {
		id, err := reg.Intern(s)
		if err != nil {
			return fmt.Errorf("nature: binding table entry %d: %w", i, err)
		}
		ids[i] = id
	}
	t.reg = reg
	t.ids = ids
	return nil
}

// ID returns the interned ID of SSet i's strategy.  It must only be called
// on a bound table.
func (t *Table) ID(i int) uint32 { return t.ids[i] }

// IDs returns the interned ID of every SSet's strategy, indexed by SSet,
// so a scan over all SSets needs no per-entry call.  It must only be called
// on a bound table, and the slice must not be modified; it stays current
// across Sets.
func (t *Table) IDs() []uint32 { return t.ids }

// Snapshot returns a copy of the table's strategy slice; callers may read it
// without holding any reference to the live table.
func (t *Table) Snapshot() []strategy.Strategy {
	cp := make([]strategy.Strategy, len(t.strategies))
	copy(cp, t.strategies)
	return cp
}

// Counts returns the number of SSets assigned to each distinct strategy,
// keyed by the strategy's String rendering; used for abundance statistics
// and fixation detection.
func (t *Table) Counts() map[string]int {
	counts := make(map[string]int)
	for _, s := range t.strategies {
		counts[s.String()]++
	}
	return counts
}

// MostAbundant returns the strategy rendering with the highest SSet count
// and the fraction of the population it holds.
func (t *Table) MostAbundant() (key string, fraction float64) {
	counts := t.Counts()
	best, bestCount := "", -1
	for k, c := range counts {
		if c > bestCount || (c == bestCount && k < best) {
			best, bestCount = k, c
		}
	}
	return best, float64(bestCount) / float64(len(t.strategies))
}
