package game

import (
	"fmt"
	"strings"
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
	// StateLinearSearch reproduces the paper's original find_state: the
	// current view is compared against every row of the global state table.
	StateLinearSearch StateMode = iota
	// StateRolling updates the state code in O(1) per round.
	StateRolling
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

// MemorySteps returns the memory depth of the table.
func (t *StateTable) MemorySteps() int { return t.memSteps }

// NumStates returns the number of rows.
func (t *StateTable) NumStates() int { return len(t.rows) }

// Row returns the per-round codes (most recent first) of state i.
func (t *StateTable) Row(i int) []uint8 { return t.rows[i] }

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

// String renders the table in the style of the paper's Table II, mostly for
// debugging and the benchtables tool.
func (t *StateTable) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "memory-%d state table (%d states)\n", t.memSteps, len(t.rows))
	for i, row := range t.rows {
		fmt.Fprintf(&sb, "%4d:", i)
		for r := len(row) - 1; r >= 0; r-- {
			fmt.Fprintf(&sb, " %s%s", Move(row[r]>>1), Move(row[r]&1))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// History tracks one player's view of the game: the packed state code, and,
// for the linear-search path, the explicit per-round view array.  The view
// is a fixed array, so a History held by value needs no heap allocation.
type History struct {
	memSteps int
	mask     int
	state    int
	view     [MaxMemorySteps]uint8 // view[r] = RoundCode of round r, 0 = most recent
}

// NewHistory returns a History seeded with the all-cooperate initial state.
func NewHistory(memSteps int) *History {
	h := newHistory(memSteps)
	return &h
}

func newHistory(memSteps int) History {
	CheckMemorySteps(memSteps)
	return History{memSteps: memSteps, mask: NumStates(memSteps) - 1, state: InitialState}
}

// Reset returns the history to the all-cooperate initial state.
func (h *History) Reset() {
	h.state = InitialState
	h.view = [MaxMemorySteps]uint8{}
}

// MemorySteps returns the memory depth.
func (h *History) MemorySteps() int { return h.memSteps }

// State returns the packed state code maintained by the rolling encoder.
func (h *History) State() int { return h.state }

// View returns the explicit per-round view (most recent round first).  The
// returned slice aliases internal state and must not be modified.
func (h *History) View() []uint8 { return h.view[:h.memSteps] }

// Push records one more round of play (my own move and the opponent's move)
// into the history, updating both the rolling code and the explicit view.
func (h *History) Push(my, opp Move) {
	code := uint8(RoundCode(my, opp))
	h.state = ((h.state << 2) | int(code)) & h.mask
	// Shift the explicit view: round r becomes round r+1.
	copy(h.view[1:h.memSteps], h.view[:h.memSteps-1])
	h.view[0] = code
}

// StateVia returns the current state index using the requested mode,
// consulting table for the linear-search path.  The two modes always agree;
// the distinction exists so the Figure 3 ablation can measure the cost of
// the original search.
func (h *History) StateVia(mode StateMode, table *StateTable) int {
	if mode == StateRolling {
		return h.state
	}
	return table.FindState(h.view[:h.memSteps])
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
