// Package game implements the two-player Iterated Prisoner's Dilemma (IPD)
// kernel at the heart of the framework: moves, the payoff matrix, memory-n
// game-state encoding, execution errors (noise), and the round loop that
// plays one strategy against another and returns the accumulated fitness.
// A player is a pure memory-n strategy given as its packed move table
// (Player); the only randomness in a game is the execution error, drawn
// from the source the caller supplies.
//
// The package corresponds to the IPD() function of the paper's Section IV-C
// and the optimization levels of Figure 3: the state of the game after each
// round can be identified either with the paper's original linear search over
// a global state table or with an O(1) rolling state code, and the fitness
// can be accumulated either with a branching switch or with a fused payoff
// look-up table.
package game

import (
	"errors"
	"fmt"
	"math"
)

// Move is a single play in one round of the Prisoner's Dilemma.
type Move uint8

const (
	// Cooperate is the cooperative move, encoded as 0 as in the paper.
	Cooperate Move = 0
	// Defect is the defecting move, encoded as 1.
	Defect Move = 1
)

// String returns "C" or "D".
func (m Move) String() string {
	if m == Cooperate {
		return "C"
	}
	return "D"
}

// Flip returns the opposite move; it models an execution error.
func (m Move) Flip() Move {
	return m ^ 1
}

// Matrix is the Prisoner's Dilemma payoff matrix, expressed through the four
// canonical values Reward, Sucker, Temptation and Punishment (Table I of the
// paper).
type Matrix struct {
	Reward     float64 // both cooperate
	Sucker     float64 // I cooperate, opponent defects
	Temptation float64 // I defect, opponent cooperates
	Punishment float64 // both defect
}

// Standard returns the payoff matrix used throughout the paper's
// experiments: f[R,S,T,P] = [3,0,4,1].
func Standard() Matrix {
	return Matrix{Reward: 3, Sucker: 0, Temptation: 4, Punishment: 1}
}

// Validate checks the Prisoner's Dilemma conditions: T > R > P > S, which
// makes defection the dominant single-shot strategy, and 2R > T + S, which
// makes mutual cooperation collectively optimal in the repeated game.
// Validation of non-PD matrices is per-scenario: use Spec.Validate with the
// spec the matrix is meant to instantiate.
func (m Matrix) Validate() error {
	if err := IPD().Validate(m); err != nil {
		return fmt.Errorf("%w: %w", ErrNonPD, err)
	}
	return nil
}

// Payoff returns the payoff received by a player that plays my against an
// opponent that plays opp.
func (m Matrix) Payoff(my, opp Move) float64 {
	switch {
	case my == Cooperate && opp == Cooperate:
		return m.Reward
	case my == Cooperate && opp == Defect:
		return m.Sucker
	case my == Defect && opp == Cooperate:
		return m.Temptation
	default:
		return m.Punishment
	}
}

// Table returns the payoff indexed by the 2-bit outcome code my<<1|opp.
// This is the fused look-up representation used by the highest optimization
// level (the analogue of the paper's hand-coded fitness kernel).
func (m Matrix) Table() [4]float64 {
	return [4]float64{
		m.Reward,     // 00: C vs C
		m.Sucker,     // 01: C vs D
		m.Temptation, // 10: D vs C
		m.Punishment, // 11: D vs D
	}
}

// MaxPerRound returns the largest payoff a single player can earn in one
// round.
//
//lint:allow deadapi analysis.TestQuickExpectedPayoffBounds bounds exact payoffs with it
func (m Matrix) MaxPerRound() float64 {
	max := m.Reward
	for _, v := range []float64{m.Sucker, m.Temptation, m.Punishment} {
		if v > max {
			max = v
		}
	}
	return max
}

// MinPerRound returns the smallest payoff a single player can earn in one
// round.
//
//lint:allow deadapi analysis.TestQuickExpectedPayoffBounds bounds exact payoffs with it
func (m Matrix) MinPerRound() float64 {
	min := m.Reward
	for _, v := range []float64{m.Sucker, m.Temptation, m.Punishment} {
		if v < min {
			min = v
		}
	}
	return min
}

// IntegerValued reports whether every payoff is an exact integer.  Integer
// matrices make every accumulated fitness sum an exactly-representable
// float64, which is what lets the incremental fitness mode's delta updates
// stay bit-identical to full re-evaluation; non-integer matrices fall back
// to the pair-cached mode.
func (m Matrix) IntegerValued() bool {
	for _, v := range []float64{m.Reward, m.Sucker, m.Temptation, m.Punishment} {
		if v != math.Trunc(v) {
			return false
		}
	}
	return true
}

// ErrNonPD is returned by helpers that require a valid Prisoner's Dilemma
// matrix when given one that violates the PD conditions.
var ErrNonPD = errors.New("game: matrix does not satisfy the Prisoner's Dilemma conditions")
