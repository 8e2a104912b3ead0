package game

import (
	"fmt"
	"strings"

	"evogame/internal/rng"
)

// MaxMemorySteps is the largest memory depth supported by the framework.
// The paper shows memory-six (4096 states) is the largest that fits in the
// memory of a Blue Gene node; we keep the same ceiling so that strategy and
// state encodings stay within a comfortable integer range.
const MaxMemorySteps = 6

// NumStates returns the number of distinct game states for a memory-n
// strategy: 2^(2n) = 4^n (Section III-E).  It panics if memSteps is outside
// [1, MaxMemorySteps].
func NumStates(memSteps int) int {
	CheckMemorySteps(memSteps)
	return 1 << (2 * uint(memSteps))
}

// CheckMemorySteps panics if memSteps is outside the supported range.  The
// framework treats an invalid memory depth as a programming error rather
// than a runtime condition, mirroring how slice bounds are handled.
func CheckMemorySteps(memSteps int) {
	if memSteps < 1 || memSteps > MaxMemorySteps {
		panic(fmt.Sprintf("game: memory steps %d out of range [1,%d]", memSteps, MaxMemorySteps))
	}
}

// A game state for memory-n encodes the last n rounds of play from one
// player's perspective.  Round 0 (the most recent round) occupies the two
// least-significant bits; within a round the player's own move is the high
// bit and the opponent's move is the low bit:
//
//	state = Σ_{i=0}^{n-1} (my_i<<1 | opp_i) << (2*i)
//
// The all-cooperate history is therefore state 0, which is the initial state
// of every game (the paper arbitrarily seeds the first plays with
// cooperation).

// InitialState is the state corresponding to an all-cooperate history.
const InitialState = 0

// RoundCode packs one round of play into its 2-bit code.
func RoundCode(my, opp Move) int {
	return int(my)<<1 | int(opp)
}

// StateMode selects how the engine identifies the current game state after
// each round.  It is the axis of the paper's "Compiler"-level optimization
// in Figure 3: the original implementation searched a global table of
// states, the optimized one uses an O(1) rolling code.
type StateMode int

const (
	// StateRolling updates the state code in O(1) per round.
	StateRolling StateMode = iota
	// StateLinearSearch reproduces the paper's original find_state: the
	// current view is compared against every row of the global state table.
	StateLinearSearch
)

// String implements fmt.Stringer.
func (m StateMode) String() string {
	switch m {
	case StateLinearSearch:
		return "linear-search"
	case StateRolling:
		return "rolling"
	default:
		return fmt.Sprintf("StateMode(%d)", int(m))
	}
}

// StateTable is the globally defined list of potential game states for a
// given memory depth (the "global states" array of the paper's pseudo code).
// Row i of the table is the history whose packed code is i, stored as
// explicit per-round move pairs so that the linear-search path really does
// the work the paper's original implementation did.
type StateTable struct {
	memSteps int
	// rows[i][r] = RoundCode for round r (0 = most recent) of state i.
	rows [][]uint8
}

// NewStateTable builds the state table for the given memory depth.
func NewStateTable(memSteps int) *StateTable {
	CheckMemorySteps(memSteps)
	n := NumStates(memSteps)
	rows := make([][]uint8, n)
	backing := make([]uint8, n*memSteps)
	for i := 0; i < n; i++ {
		rows[i] = backing[i*memSteps : (i+1)*memSteps]
		for r := 0; r < memSteps; r++ {
			rows[i][r] = uint8((i >> (2 * uint(r))) & 3)
		}
	}
	return &StateTable{memSteps: memSteps, rows: rows}
}

// FindState performs the paper's linear search: it scans the table for the
// row matching the supplied view (most recent round first) and returns its
// index.  The view must have exactly memSteps entries; FindState returns -1
// if no row matches, which cannot happen for well-formed views.
func (t *StateTable) FindState(view []uint8) int {
	if len(view) != t.memSteps {
		return -1
	}
search:
	for i, row := range t.rows {
		for r := range row {
			if row[r] != view[r] {
				continue search
			}
		}
		return i
	}
	return -1
}

// playReference is the Figure 3 ablation's round loop, the paper's kernel
// before its "Compiler" and "Instruction" optimizations.  Under
// StateLinearSearch each player's state is found by FindState over an
// explicit per-round view; under AccumBranching each payoff goes through
// Matrix.Payoff.  Draw order, state sequence and sums match playRounds, so
// the variants differ only in speed.
func (e *Engine) playReference(wa, wb []uint64, src *rng.Source) Result {
	n := e.memSteps
	mask := NumStates(n) - 1
	var viewA, viewB [MaxMemorySteps]uint8 // view[r] = RoundCode of round r, 0 = most recent
	res := Result{Rounds: e.rounds}
	sA, sB := InitialState, InitialState
	for r := 0; r < e.rounds; r++ {
		if e.states != nil {
			sA, sB = e.states.FindState(viewA[:n]), e.states.FindState(viewB[:n])
		}
		moveA := moveAt(wa, sA)
		moveB := moveAt(wb, sB)
		if e.noise > 0 {
			if src.BoolT(e.flipT) {
				moveA = moveA.Flip()
			}
			if src.BoolT(e.flipT) {
				moveB = moveB.Flip()
			}
		}
		if moveA == Cooperate {
			res.CooperationsA++
		}
		if moveB == Cooperate {
			res.CooperationsB++
		}
		codeA, codeB := RoundCode(moveA, moveB), RoundCode(moveB, moveA)
		if e.accumMode == AccumLookup {
			res.FitnessA += e.table[codeA]
			res.FitnessB += e.table[codeB]
		} else {
			res.FitnessA += e.payoff.Payoff(moveA, moveB)
			res.FitnessB += e.payoff.Payoff(moveB, moveA)
		}
		copy(viewA[1:n], viewA[:n-1])
		copy(viewB[1:n], viewB[:n-1])
		viewA[0], viewB[0] = uint8(codeA), uint8(codeB)
		sA = (sA<<2 | codeA) & mask
		sB = (sB<<2 | codeB) & mask
	}
	return res
}

// OpponentState returns the packed state as seen from the opponent's
// perspective: within every round the two move bits are swapped.
func OpponentState(state, memSteps int) int {
	CheckMemorySteps(memSteps)
	out := 0
	for r := 0; r < memSteps; r++ {
		code := (state >> (2 * uint(r))) & 3
		swapped := ((code & 1) << 1) | (code >> 1)
		out |= swapped << (2 * uint(r))
	}
	return out
}

// StateString renders a packed state as the plays of the last n rounds, most
// recent round last, e.g. "CD|DC" — useful in tables and error messages.
func StateString(state, memSteps int) string {
	CheckMemorySteps(memSteps)
	parts := make([]string, memSteps)
	for r := 0; r < memSteps; r++ {
		code := (state >> (2 * uint(r))) & 3
		parts[memSteps-1-r] = Move(code>>1).String() + Move(code&1).String()
	}
	return strings.Join(parts, "|")
}
