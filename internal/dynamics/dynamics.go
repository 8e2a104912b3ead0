// Package dynamics provides the pluggable update-rule layer of the
// evolutionary dynamics: the rule the Nature Agent applies when a selected
// learner compares fitness with a selected teacher.
//
// The paper hardwires one rule — pairwise comparison with the Fermi
// adoption probability (its Equation 1) — into the Nature Agent.  This
// package generalizes that single point: every rule consumes the same
// inputs (the two reported fitness values, the selection intensity and the
// Nature Agent's random source) and produces the same output (adopt or
// not), so the event protocol of both engines — select a (teacher, learner)
// pair, collect their fitness from the owning ranks, broadcast the
// strategy-table update — is identical for every rule, and the fitness
// subsystem's row/column invalidation hooks work unchanged.
//
// Built-in rules:
//
//   - "fermi" (default): adopt with probability 1/(1+exp(-β(πT-πL))).
//     Bit-identical to the pre-registry Nature Agent for a given seed.
//   - "imitation": best-takes-over — adopt exactly when the teacher's
//     fitness is strictly higher.  Deterministic; consumes no randomness.
//   - "moran": pairwise Moran death-birth — the learner (death) is replaced
//     by the teacher's strategy with probability πT/(πT+πL), the
//     fitness-proportional birth rule restricted to the sampled pair.
package dynamics

import (
	"fmt"
	"math"
	"sort"

	"evogame/internal/rng"
)

// Rule decides whether a learner adopts a teacher's strategy.  A Rule must
// be stateless and safe for concurrent use; all randomness comes from the
// supplied source so trajectories stay reproducible per seed.
type Rule interface {
	// Name is the registry key and the identity recorded in checkpoints.
	Name() string
	// Adopt reports whether the learner adopts the teacher's strategy, given
	// the two reported fitness values and the selection intensity beta, and
	// returns the adoption probability that was applied (0 or 1 for
	// deterministic rules).  Rules that need randomness draw it from src.
	Adopt(src *rng.Source, beta, fitnessTeacher, fitnessLearner float64) (adopted bool, prob float64)
}

// FermiProb returns the Fermi adoption probability
// p = 1 / (1 + exp(-β (πT - πL))) (Equation 1 of the paper).  β = 0 gives
// 1/2 (random drift); β → ∞ approaches a step function that always adopts
// the better strategy.
func FermiProb(beta, payoffTeacher, payoffLearner float64) float64 {
	return 1 / (1 + math.Exp(-beta*(payoffTeacher-payoffLearner)))
}

// fermiRule is the paper's pairwise-comparison process.
type fermiRule struct{}

func (fermiRule) Name() string { return "fermi" }

func (fermiRule) Adopt(src *rng.Source, beta, fitT, fitL float64) (bool, float64) {
	prob := FermiProb(beta, fitT, fitL)
	return src.Bool(prob), prob
}

// imitationRule is deterministic best-takes-over imitation: the learner
// copies the teacher exactly when the teacher did strictly better.  It is
// the β → ∞ limit of the Fermi rule and consumes no randomness, so runs are
// reproducible trivially.
type imitationRule struct{}

func (imitationRule) Name() string { return "imitation" }

func (imitationRule) Adopt(_ *rng.Source, _ float64, fitT, fitL float64) (bool, float64) {
	if fitT > fitL {
		return true, 1
	}
	return false, 0
}

// moranRule is the pairwise Moran death-birth process: the learner (the
// death event) is replaced by the teacher's strategy with probability
// proportional to the teacher's share of the pair's total fitness.
// Negative fitness values (possible under the generic 2x2 spec) are clamped
// to zero; when both clamp to zero the rule falls back to random drift.
type moranRule struct{}

func (moranRule) Name() string { return "moran" }

func (moranRule) Adopt(src *rng.Source, _ float64, fitT, fitL float64) (bool, float64) {
	wT, wL := math.Max(fitT, 0), math.Max(fitL, 0)
	prob := 0.5
	if wT+wL > 0 {
		prob = wT / (wT + wL)
	}
	return src.Bool(prob), prob
}

// Fermi returns the default update rule, the paper's Fermi
// pairwise-comparison process.
func Fermi() Rule { return fermiRule{} }

// Imitation returns the deterministic best-takes-over rule.
func Imitation() Rule { return imitationRule{} }

// Moran returns the pairwise Moran death-birth rule.
func Moran() Rule { return moranRule{} }

// rulesByName is the update-rule registry, fixed at compile time.
var rulesByName = map[string]Rule{
	"fermi":     Fermi(),
	"imitation": Imitation(),
	"moran":     Moran(),
}

// Lookup returns the registered update rule with the given name.
func Lookup(name string) (Rule, error) {
	r, ok := rulesByName[name]
	if !ok {
		return nil, fmt.Errorf("dynamics: unknown update rule %q (want one of %v)", name, Names())
	}
	return r, nil
}

// Names returns the sorted names of all registered update rules.
func Names() []string {
	names := make([]string, 0, len(rulesByName))
	for name := range rulesByName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
