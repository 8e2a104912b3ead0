package game

import (
	"fmt"
	"math"
	"sort"
)

// Constraint is one inequality a payoff matrix must satisfy to be a valid
// instance of a game scenario.  Name renders the inequality in the canonical
// R/S/T/P terms (for example "T > R") so that validation failures can tell
// the user exactly which condition broke and with which values.
type Constraint struct {
	// Name is the inequality in R/S/T/P notation, e.g. "2R > T+S".
	Name string
	// Holds reports whether the matrix satisfies the inequality.
	Holds func(Matrix) bool
}

// Spec is a named two-player symmetric 2x2 game scenario: a canonical payoff
// matrix plus the ordering constraints that define the scenario's dilemma.
// The paper fixes one Spec — the Iterated Prisoner's Dilemma with
// f[R,S,T,P] = [3,0,4,1] — but every layer of the framework accepts any
// registered Spec, which is what opens non-PD workloads (Snowdrift,
// Stag Hunt, arbitrary 2x2 games) to both engines.
type Spec struct {
	// Name is the registry key and the stable identity recorded in
	// checkpoints and fitness-cache keys ("ipd", "snowdrift", ...).
	Name string
	// Title is a short human description of the scenario.
	Title string
	// Payoff is the scenario's canonical payoff matrix; callers may swap it
	// for any matrix that still satisfies Constraints via WithPayoff.
	Payoff Matrix
	// Constraints are the ordering conditions a matrix must satisfy to count
	// as an instance of this scenario; empty means any matrix is accepted
	// (the generic 2x2 game).
	Constraints []Constraint
}

// Validate checks m against the spec's constraints and, on failure, names
// the violated inequality together with the offending values.  Every spec —
// including the constraint-free generic game — rejects non-finite payoffs,
// which would silently poison fitness sums and adoption probabilities.
func (s Spec) Validate(m Matrix) error {
	for _, v := range []struct {
		name  string
		value float64
	}{{"R", m.Reward}, {"S", m.Sucker}, {"T", m.Temptation}, {"P", m.Punishment}} {
		if math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			return fmt.Errorf("game: %s: payoff %s=%v is not finite", s.Name, v.name, v.value)
		}
	}
	for _, c := range s.Constraints {
		if !c.Holds(m) {
			return fmt.Errorf("game: %s: constraint %s violated by R=%v S=%v T=%v P=%v",
				s.Name, c.Name, m.Reward, m.Sucker, m.Temptation, m.Punishment)
		}
	}
	return nil
}

// WithPayoff returns a copy of the spec carrying the given payoff matrix,
// after checking that the matrix still satisfies the spec's constraints.
func (s Spec) WithPayoff(m Matrix) (Spec, error) {
	if err := s.Validate(m); err != nil {
		return Spec{}, err
	}
	s.Payoff = m
	return s, nil
}

// ID returns the canonical identity string of the spec instance: the
// scenario name plus the effective payoff values.  Two Specs with the same
// ID describe the same game, which is what the fitness subsystem keys its
// memoized results by.
func (s Spec) ID() string {
	return fmt.Sprintf("%s[R=%v S=%v T=%v P=%v]",
		s.Name, s.Payoff.Reward, s.Payoff.Sucker, s.Payoff.Temptation, s.Payoff.Punishment)
}

// IPD returns the paper's scenario: the Iterated Prisoner's Dilemma with
// f[R,S,T,P] = [3,0,4,1], requiring T > R > P > S (defection dominates a
// single shot) and 2R > T+S (mutual cooperation is collectively optimal in
// the repeated game).  This is the default game everywhere a Spec is left
// unset, keeping zero-value configurations identical to the pre-registry
// engines.
func IPD() Spec {
	return Spec{
		Name:   "ipd",
		Title:  "Iterated Prisoner's Dilemma",
		Payoff: Standard(),
		Constraints: []Constraint{
			{"T > R", func(m Matrix) bool { return m.Temptation > m.Reward }},
			{"R > P", func(m Matrix) bool { return m.Reward > m.Punishment }},
			{"P > S", func(m Matrix) bool { return m.Punishment > m.Sucker }},
			{"2R > T+S", func(m Matrix) bool { return 2*m.Reward > m.Temptation+m.Sucker }},
		},
	}
}

// Snowdrift returns the Snowdrift (Hawk-Dove / Chicken) scenario: T > R >
// S > P, so the best reply to a defector is to cooperate anyway and
// cooperation survives at equilibrium instead of collapsing as in the PD.
// The canonical matrix uses benefit b=4 and cost c=2: R = b - c/2, S = b - c,
// T = b, P = 0.
func Snowdrift() Spec {
	return Spec{
		Name:   "snowdrift",
		Title:  "Snowdrift (Hawk-Dove)",
		Payoff: Matrix{Reward: 3, Sucker: 2, Temptation: 4, Punishment: 0},
		Constraints: []Constraint{
			{"T > R", func(m Matrix) bool { return m.Temptation > m.Reward }},
			{"R > S", func(m Matrix) bool { return m.Reward > m.Sucker }},
			{"S > P", func(m Matrix) bool { return m.Sucker > m.Punishment }},
		},
	}
}

// StagHunt returns the Stag Hunt coordination scenario: R > T >= P > S, so
// mutual cooperation is the payoff-dominant equilibrium while defection is
// the risk-dominant one.
func StagHunt() Spec {
	return Spec{
		Name:   "staghunt",
		Title:  "Stag Hunt",
		Payoff: Matrix{Reward: 4, Sucker: 0, Temptation: 3, Punishment: 2},
		Constraints: []Constraint{
			{"R > T", func(m Matrix) bool { return m.Reward > m.Temptation }},
			{"T >= P", func(m Matrix) bool { return m.Temptation >= m.Punishment }},
			{"P > S", func(m Matrix) bool { return m.Punishment > m.Sucker }},
		},
	}
}

// Generic returns the unconstrained 2x2 scenario: any payoff matrix is
// accepted.  Its canonical payoff is the paper's PD matrix; callers are
// expected to swap in their own values with WithPayoff (or the facade's
// Payoff override).
func Generic() Spec {
	return Spec{
		Name:   "generic",
		Title:  "Generic 2x2 game",
		Payoff: Standard(),
	}
}

// specsByID is the scenario registry, fixed at compile time.
var specsByID = map[string]Spec{
	"ipd":       IPD(),
	"snowdrift": Snowdrift(),
	"staghunt":  StagHunt(),
	"generic":   Generic(),
}

// LookupSpec returns the registered scenario with the given name.
func LookupSpec(name string) (Spec, error) {
	s, ok := specsByID[name]
	if !ok {
		return Spec{}, fmt.Errorf("game: unknown game %q (want one of %v)", name, SpecNames())
	}
	return s, nil
}

// SpecNames returns the sorted names of all registered scenarios.
func SpecNames() []string {
	names := make([]string, 0, len(specsByID))
	for name := range specsByID {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
