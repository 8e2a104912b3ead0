// Package strategy defines the strategies the evolutionary game dynamics
// framework evolves: pure memory-n strategies backed by packed bit vectors,
// together with the classic named strategies of the literature (ALLC, ALLD,
// TFT, WSLS, …) generalised to arbitrary memory depth, uniform random
// strategy generation for the mutation operator, a compact binary codec
// used by the message-passing layer and checkpoints, and the
// strategy-space accounting of Table IV.
//
// A strategy is a function from game states to moves.  States are encoded
// as in the game package: the most recent round occupies the two low bits,
// with the player's own move in the high bit of each round pair.
package strategy

import (
	"fmt"
	"math/big"
	"math/bits"
	"strings"

	"evogame/internal/game"
	"evogame/internal/rng"
)

// Strategy is the framework-wide strategy abstraction.  It extends
// game.Player with the operations the population dynamics need: cloning
// (learning copies a teacher's strategy), equality (abundance statistics and
// fixation detection), and a stable rendering used in reports.
type Strategy interface {
	game.Player
	// Clone returns a deep copy that can be mutated independently.
	Clone() Strategy
	// Equal reports whether the receiver and other define the same mapping
	// from states to moves.
	Equal(other Strategy) bool
	// String returns a compact human-readable rendering.
	String() string
}

// Pure is a deterministic memory-n strategy: one fixed move per state.
// Internally the move table is a packed bit vector where a set bit means
// Defect, matching the paper's 0=cooperate / 1=defect convention.
type Pure struct {
	mem  int
	bits []uint64 // packed moves, bit i = move in state i (1 = Defect)
	n    int      // number of states
}

// NewPure returns the all-cooperate pure strategy of the given memory depth.
func NewPure(memSteps int) *Pure {
	game.CheckMemorySteps(memSteps)
	n := game.NumStates(memSteps)
	return &Pure{mem: memSteps, n: n, bits: make([]uint64, (n+63)/64)}
}

// RandomPure returns a uniformly random pure strategy of the given memory
// depth: each state's move is an independent fair coin.  This is the
// mutation operator's new-strategy generator (gen_new_strat in the paper).
func RandomPure(memSteps int, src *rng.Source) *Pure {
	p := NewPure(memSteps)
	src.FillUint64(p.bits)
	p.maskTail()
	return p
}

// ParsePure builds a pure strategy from a string of '0' (cooperate) and '1'
// (defect) characters, one per state, state 0 first — the format used in the
// paper's strategy tables.
func ParsePure(memSteps int, s string) (*Pure, error) {
	if err := checkMemory(memSteps); err != nil {
		return nil, err
	}
	p := NewPure(memSteps)
	if len(s) != p.n {
		return nil, fmt.Errorf("strategy: string has %d characters, memory-%d needs %d", len(s), memSteps, p.n)
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			p.SetMove(i, game.Defect)
		default:
			return nil, fmt.Errorf("strategy: invalid character %q at position %d", s[i], i)
		}
	}
	return p, nil
}

// checkMemory is game.CheckMemorySteps for constructors that return an
// error instead of panicking.
func checkMemory(memSteps int) error {
	if memSteps < 1 || memSteps > game.MaxMemorySteps {
		return fmt.Errorf("strategy: memory steps %d out of range [1,%d]", memSteps, game.MaxMemorySteps)
	}
	return nil
}

func (p *Pure) maskTail() {
	rem := p.n % 64
	if rem != 0 {
		p.bits[len(p.bits)-1] &= (1 << uint(rem)) - 1
	}
}

// MemorySteps implements game.Player.
func (p *Pure) MemorySteps() int { return p.mem }

// NumStates returns the number of states in the strategy's domain.
func (p *Pure) NumStates() int { return p.n }

// Move returns the move played in the given state.
func (p *Pure) Move(state int) game.Move {
	if p.bits[state>>6]&(1<<(uint(state)&63)) != 0 {
		return game.Defect
	}
	return game.Cooperate
}

// SetMove sets the move played in the given state.
func (p *Pure) SetMove(state int, m game.Move) {
	if state < 0 || state >= p.n {
		panic(fmt.Sprintf("strategy: state %d out of range [0,%d)", state, p.n))
	}
	if m == game.Defect {
		p.bits[state>>6] |= 1 << (uint(state) & 63)
	} else {
		p.bits[state>>6] &^= 1 << (uint(state) & 63)
	}
}

// FlipMove inverts the move played in the given state; used by
// point-mutation operators and tests.
//
//lint:allow deadapi intern.TestInternCanonicalInstanceIsIsolated mutates a strategy with it
func (p *Pure) FlipMove(state int) {
	if state < 0 || state >= p.n {
		panic(fmt.Sprintf("strategy: state %d out of range [0,%d)", state, p.n))
	}
	p.bits[state>>6] ^= 1 << (uint(state) & 63)
}

// Clone implements Strategy.
func (p *Pure) Clone() Strategy {
	c := NewPure(p.mem)
	copy(c.bits, p.bits)
	return c
}

// Equal implements Strategy.
func (p *Pure) Equal(other Strategy) bool {
	q, ok := other.(*Pure)
	if !ok || q.mem != p.mem {
		return false
	}
	for i := range p.bits {
		if p.bits[i] != q.bits[i] {
			return false
		}
	}
	return true
}

// DefectionCount returns the number of states in which the strategy defects.
func (p *Pure) DefectionCount() int {
	count := 0
	for _, w := range p.bits {
		count += bits.OnesCount64(w)
	}
	return count
}

// moveChunks[b] renders the eight states packed in byte b as '0'/'1'
// characters, lowest state first.
var moveChunks = func() (t [256][8]byte) {
	for b := range t {
		for k := range t[b] {
			t[b][k] = '0' + byte(b>>uint(k)&1)
		}
	}
	return t
}()

// String renders the full move table as '0'/'1' characters, state 0 first.
// For memory-one this matches the rows of the paper's Table III.
func (p *Pure) String() string {
	var sb strings.Builder
	sb.Grow(p.n)
	for s := 0; s < p.n; s += 8 {
		chunk := &moveChunks[byte(p.bits[s>>6]>>(uint(s)&63))]
		sb.Write(chunk[:min(8, p.n-s)])
	}
	return sb.String()
}

// Words implements game.Player: it returns the packed move table, which the
// game kernels, the codec and the k-means feature extraction read.  The
// returned slice must not be modified.
func (p *Pure) Words() []uint64 { return p.bits }

// NumPureStrategies returns the number of pure strategies for the given
// memory depth, 2^(4^n) — the quantity tabulated in the paper's Table IV.
// The result does not fit in any machine integer for n ≥ 3, so it is
// returned as a big.Int.
//
//lint:allow deadapi BenchmarkTable4StrategySpace (bench_test.go) times Table IV strategy-space accounting with it
func NumPureStrategies(memSteps int) *big.Int {
	game.CheckMemorySteps(memSteps)
	exp := game.NumStates(memSteps)
	return new(big.Int).Lsh(big.NewInt(1), uint(exp))
}

// NumPureStrategiesLog2 returns log2 of the pure strategy count, i.e. the
// number of states 4^n; this is the exponent shown in Table IV (2^4096 for
// memory six).
func NumPureStrategiesLog2(memSteps int) int {
	return game.NumStates(memSteps)
}

// AllMemoryOne enumerates all 16 pure memory-one strategies (the set shown
// in the paper's Table III): every possible move table over the four
// memory-one states.
func AllMemoryOne() []*Pure {
	out := make([]*Pure, 16)
	for code := 0; code < 16; code++ {
		p := NewPure(1)
		for s := 0; s < 4; s++ {
			if code&(1<<uint(s)) != 0 {
				p.SetMove(s, game.Defect)
			}
		}
		out[code] = p
	}
	return out
}

// StrategyBytes returns the per-strategy memory footprint in bytes of the
// packed pure-strategy representation for the given memory depth; used by
// the cluster memory-capacity model (the paper's argument that memory-six is
// the largest depth that fits on a node).
func StrategyBytes(memSteps int) int {
	game.CheckMemorySteps(memSteps)
	return ((game.NumStates(memSteps) + 63) / 64) * 8
}
