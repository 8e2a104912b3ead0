// Package analysis provides closed-form tools for studying memory-n
// Iterated Prisoner's Dilemma strategies: exact expected payoffs of a
// strategy pair under execution errors (computed by iterating the joint
// Markov chain over game states rather than by sampling), pairwise payoff
// matrices over a strategy set, invasion analysis between a resident and a
// mutant strategy, and structural classification of strategies (nice,
// retaliatory, forgiving).
//
// The exact payoff computation serves two purposes.  Scientifically it is
// the standard analytical companion to the simulations the paper runs (the
// "classical analysis" that becomes impossible only once the memory depth
// and population size grow).  Practically it is a correctness oracle: the
// simulation engine's sampled payoffs must converge to these exact values,
// which the test suite verifies.
package analysis

import (
	"fmt"

	"evogame/internal/game"
	"evogame/internal/strategy"
)

// maxExactMemory bounds the memory depth for which the joint-chain
// computation is performed: the chain has 4^n states and the transition
// step touches each one, so memory-four (256 states) is still instant while
// memory-six (4,096 states) remains perfectly tractable but is rarely
// needed analytically.
const maxExactMemory = 6

// ExpectedPayoffs returns the exact expected total payoffs of strategies a
// and b over the given number of rounds, when every move is flipped
// independently with probability noise (the execution errors of the paper's
// Section III-F).  Both strategies must be pure and share the same memory
// depth.
//
// The computation iterates the probability distribution over the joint game
// state (the last n rounds as seen by player a); each round the intended
// moves are determined by the strategies and the four flip outcomes branch
// the distribution.  Cost is O(rounds * 4^n).
func ExpectedPayoffs(a, b *strategy.Pure, payoff game.Matrix, rounds int, noise float64) (float64, float64, error) {
	if a == nil || b == nil {
		return 0, 0, fmt.Errorf("analysis: nil strategy")
	}
	if a.MemorySteps() != b.MemorySteps() {
		return 0, 0, fmt.Errorf("analysis: memory mismatch %d vs %d", a.MemorySteps(), b.MemorySteps())
	}
	mem := a.MemorySteps()
	if mem > maxExactMemory {
		return 0, 0, fmt.Errorf("analysis: memory-%d exceeds the exact-computation limit %d", mem, maxExactMemory)
	}
	if rounds <= 0 {
		return 0, 0, fmt.Errorf("analysis: rounds must be positive, got %d", rounds)
	}
	if !(noise >= 0 && noise <= 1) { // NaN included
		return 0, 0, fmt.Errorf("analysis: noise %v outside [0,1]", noise)
	}
	if err := payoff.Validate(); err != nil {
		return 0, 0, err
	}

	n := game.NumStates(mem)
	mask := n - 1
	dist := make([]float64, n)
	next := make([]float64, n)
	dist[game.InitialState] = 1

	// Pre-compute each state's intended moves for both players.
	intendA := make([]game.Move, n)
	intendB := make([]game.Move, n)
	for s := 0; s < n; s++ {
		intendA[s] = a.Move(s)
		intendB[s] = b.Move(game.OpponentState(s, mem))
	}

	flip := [2]float64{1 - noise, noise}
	var totalA, totalB float64
	for r := 0; r < rounds; r++ {
		for i := range next {
			next[i] = 0
		}
		for s, p := range dist {
			if p == 0 {
				continue
			}
			ia, ib := intendA[s], intendB[s]
			for fa := 0; fa < 2; fa++ {
				for fb := 0; fb < 2; fb++ {
					prob := p * flip[fa] * flip[fb]
					if prob == 0 {
						continue
					}
					moveA := ia
					if fa == 1 {
						moveA = moveA.Flip()
					}
					moveB := ib
					if fb == 1 {
						moveB = moveB.Flip()
					}
					totalA += prob * payoff.Payoff(moveA, moveB)
					totalB += prob * payoff.Payoff(moveB, moveA)
					ns := ((s << 2) | game.RoundCode(moveA, moveB)) & mask
					next[ns] += prob
				}
			}
		}
		dist, next = next, dist
	}
	return totalA, totalB, nil
}

// InvasionReport describes whether a rare mutant strategy can invade a
// resident population under the framework's fitness definition (every SSet
// plays every other SSet's strategy).
type InvasionReport struct {
	// ResidentFitness is the payoff a resident earns in a population of
	// residents with a single mutant present (per opposing SSet pair, scaled
	// to populationSize-1 opponents).
	ResidentFitness float64
	// MutantFitness is the payoff the single mutant earns against the
	// resident population.
	MutantFitness float64
	// CanInvade reports whether the mutant's fitness strictly exceeds the
	// residents'.
	CanInvade bool
}

// Invasion computes whether a single mutant SSet can invade a population of
// populationSize-1 resident SSets, using exact expected payoffs.
func Invasion(resident, mutant *strategy.Pure, payoff game.Matrix, rounds, populationSize int, noise float64) (InvasionReport, error) {
	if populationSize < 2 {
		return InvasionReport{}, fmt.Errorf("analysis: population must have at least 2 SSets, got %d", populationSize)
	}
	rr, _, err := ExpectedPayoffs(resident, resident, payoff, rounds, noise)
	if err != nil {
		return InvasionReport{}, err
	}
	rm, mr, err := ExpectedPayoffs(resident, mutant, payoff, rounds, noise)
	if err != nil {
		return InvasionReport{}, err
	}
	residents := float64(populationSize - 1)
	// A resident plays (residents-1) other residents and the single mutant;
	// the mutant plays all residents.
	resFit := (residents-1)*rr + rm
	mutFit := residents * mr
	return InvasionReport{
		ResidentFitness: resFit,
		MutantFitness:   mutFit,
		CanInvade:       mutFit > resFit,
	}, nil
}

// Traits describes the classic structural properties of a strategy.
type Traits struct {
	// Nice strategies never defect first: they cooperate in every state
	// whose history contains no opponent defection.
	Nice bool
	// Retaliatory strategies defect with positive probability immediately
	// after the opponent defects (here: defect in at least one state whose
	// most recent opponent move is a defection).
	Retaliatory bool
	// Forgiving strategies return to cooperation in at least one state whose
	// history contains an opponent defection.
	Forgiving bool
	// DefectionRate is the fraction of states in which the strategy defects.
	DefectionRate float64
}

// Classify computes the structural traits of a pure strategy.
func Classify(p *strategy.Pure) Traits {
	mem := p.MemorySteps()
	n := p.NumStates()
	var t Traits
	t.Nice = true
	defections := 0
	for s := 0; s < n; s++ {
		move := p.Move(s)
		if move == game.Defect {
			defections++
		}
		oppDefected := false
		for r := 0; r < mem; r++ {
			if (s>>(2*uint(r)))&1 == 1 {
				oppDefected = true
				break
			}
		}
		if !oppDefected && move == game.Defect {
			t.Nice = false
		}
		if (s&1) == 1 && move == game.Defect {
			t.Retaliatory = true
		}
		if oppDefected && move == game.Cooperate {
			t.Forgiving = true
		}
	}
	t.DefectionRate = float64(defections) / float64(n)
	return t
}

// CooperationIndex returns the long-run probability that strategy a
// cooperates when playing strategy b under the given noise, estimated from
// the exact joint-chain distribution after `rounds` rounds (the average
// cooperation frequency over the whole game).
func CooperationIndex(a, b *strategy.Pure, rounds int, noise float64) (float64, error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("analysis: nil strategy")
	}
	if a.MemorySteps() != b.MemorySteps() {
		return 0, fmt.Errorf("analysis: memory mismatch")
	}
	if rounds <= 0 {
		return 0, fmt.Errorf("analysis: rounds must be positive")
	}
	if !(noise >= 0 && noise <= 1) { // NaN included
		return 0, fmt.Errorf("analysis: noise %v outside [0,1]", noise)
	}
	mem := a.MemorySteps()
	n := game.NumStates(mem)
	mask := n - 1
	dist := make([]float64, n)
	next := make([]float64, n)
	dist[game.InitialState] = 1
	flip := [2]float64{1 - noise, noise}
	cooperation := 0.0
	for r := 0; r < rounds; r++ {
		for i := range next {
			next[i] = 0
		}
		for s, p := range dist {
			if p == 0 {
				continue
			}
			ia := a.Move(s)
			ib := b.Move(game.OpponentState(s, mem))
			for fa := 0; fa < 2; fa++ {
				for fb := 0; fb < 2; fb++ {
					prob := p * flip[fa] * flip[fb]
					if prob == 0 {
						continue
					}
					moveA := ia
					if fa == 1 {
						moveA = moveA.Flip()
					}
					moveB := ib
					if fb == 1 {
						moveB = moveB.Flip()
					}
					if moveA == game.Cooperate {
						cooperation += prob
					}
					ns := ((s << 2) | game.RoundCode(moveA, moveB)) & mask
					next[ns] += prob
				}
			}
		}
		dist, next = next, dist
	}
	return cooperation / float64(rounds), nil
}
