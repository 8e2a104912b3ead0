package game

import (
	"fmt"
	"sync"

	"evogame/internal/rng"
)

// Player is one side of an Iterated Prisoner's Dilemma game: a pure
// memory-n strategy given as its packed move table.  strategy.Pure
// implements it.  Every kernel reads the table with plain word arithmetic,
// so the round loops make no per-move interface call.
type Player interface {
	// MemorySteps returns the memory depth n of the strategy.
	MemorySteps() int
	// Words returns the packed move table, least-significant bit first:
	// bit s is 1 when the player defects in state s.  The slice must not be
	// modified and must cover all 4^n states.
	Words() []uint64
}

// AccumMode selects how the engine accumulates fitness each round.  It is
// the axis of the paper's "Instruction"-level optimization in Figure 3 (the
// hand-coded fused multiply-add fitness kernel).
type AccumMode int

const (
	// AccumLookup resolves each round's payoff through the fused 4-entry
	// look-up table (Matrix.Table) indexed by the round outcome code.
	AccumLookup AccumMode = iota
	// AccumBranching resolves each round's payoff through the four-way
	// comparison of Matrix.Payoff.
	AccumBranching
)

// String implements fmt.Stringer.
func (m AccumMode) String() string {
	switch m {
	case AccumBranching:
		return "branching"
	case AccumLookup:
		return "lookup"
	default:
		return fmt.Sprintf("AccumMode(%d)", int(m))
	}
}

// Engine plays Iterated Prisoner's Dilemma games.  An Engine's
// configuration is immutable after construction and it is safe for
// concurrent use by multiple goroutines as long as each call supplies its
// own rng.Source; the only mutable state is the atomic kernel-mix counters
// (KernelStats) and the pooled cycle-closing, batch and gather-lane scratch
// buffers.
type Engine struct {
	spec      Spec
	payoff    Matrix
	table     [4]float64
	rounds    int
	noise     float64
	flipT     uint64 // rng.BoolThreshold(noise): the one definition of a flip
	memSteps  int
	accumMode AccumMode
	kernel    KernelMode
	intPayoff bool
	states    *StateTable // non-nil only under StateLinearSearch
	// replay plays one game round by round: playRounds, or the Figure 3
	// ablation's playReference when a mode field asks for it.
	replay func(e *Engine, wa, wb []uint64, src *rng.Source) Result

	stats     kernelCounters
	cyclePool sync.Pool // of *cycleBuffers
	batchPool sync.Pool // of *batchBuffers
	lanePool  sync.Pool // of *laneBuffers
}

// EngineConfig collects the knobs of the IPD kernel.  The zero value is not
// valid (Rounds and MemorySteps must be set); its zero modes select the
// production kernel.
type EngineConfig struct {
	// Game is the scenario the engine plays (see Spec and the registry).
	// The zero value selects the paper's IPD spec, so legacy configurations
	// behave exactly as before the scenario registry existed.
	Game Spec
	// Payoff overrides the spec's canonical payoff matrix; it must satisfy
	// the spec's constraints.  The zero value selects Game.Payoff (which for
	// the default IPD spec is Standard()).
	Payoff Matrix
	// Rounds is the number of rounds per game (the paper uses 200).
	Rounds int
	// Noise is the probability, per move, that a player's intended move is
	// flipped (the execution errors of Section III-F).  0 disables noise.
	Noise float64
	// MemorySteps is the memory depth n shared by both players.
	MemorySteps int
	// StateMode selects rolling (the zero value) or linear-search state
	// identification.
	StateMode StateMode
	// AccumMode selects look-up (the zero value) or branching fitness
	// accumulation.
	AccumMode AccumMode
	// Kernel selects the noiseless-game inner loop: the zero value,
	// KernelAuto, closes the joint-state cycle in closed form whenever that
	// is bit-exact (see KernelMode); KernelFullReplay forces the
	// round-by-round reference loop.
	Kernel KernelMode
}

// DefaultRounds is the number of IPD rounds per generation used throughout
// the paper's experiments.
const DefaultRounds = 200

// NewEngine validates the configuration and returns an Engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.Game.Name == "" {
		cfg.Game = IPD()
	}
	if cfg.Payoff == (Matrix{}) {
		cfg.Payoff = cfg.Game.Payoff
	}
	if err := cfg.Game.Validate(cfg.Payoff); err != nil {
		return nil, err
	}
	cfg.Game.Payoff = cfg.Payoff
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("game: rounds must be positive, got %d", cfg.Rounds)
	}
	if !(cfg.Noise >= 0 && cfg.Noise <= 1) {
		// Written so NaN, which fails every comparison, is rejected too.
		return nil, fmt.Errorf("game: Noise must be in [0,1], got %v", cfg.Noise)
	}
	if cfg.MemorySteps < 1 || cfg.MemorySteps > MaxMemorySteps {
		return nil, fmt.Errorf("game: memory steps must be in [1,%d], got %d", MaxMemorySteps, cfg.MemorySteps)
	}
	if !cfg.Kernel.Valid() {
		return nil, fmt.Errorf("game: invalid kernel mode %v", cfg.Kernel)
	}
	e := &Engine{
		spec:      cfg.Game,
		payoff:    cfg.Payoff,
		table:     cfg.Payoff.Table(),
		rounds:    cfg.Rounds,
		noise:     cfg.Noise,
		flipT:     rng.BoolThreshold(cfg.Noise),
		memSteps:  cfg.MemorySteps,
		accumMode: cfg.AccumMode,
		kernel:    cfg.Kernel,
		intPayoff: cfg.Payoff.IntegerValued(),
		replay:    (*Engine).playRounds,
	}
	if cfg.StateMode == StateLinearSearch {
		e.states = NewStateTable(cfg.MemorySteps)
	}
	if cfg.StateMode != StateRolling || cfg.AccumMode != AccumLookup {
		e.replay = (*Engine).playReference
	}
	return e, nil
}

// MemorySteps returns the memory depth of games this engine plays.
func (e *Engine) MemorySteps() int { return e.memSteps }

// Rounds returns the number of rounds per game.
func (e *Engine) Rounds() int { return e.rounds }

// Noise returns the per-move error probability.
func (e *Engine) Noise() float64 { return e.noise }

// Payoff returns the engine's payoff matrix.
func (e *Engine) Payoff() Matrix { return e.payoff }

// GameID returns the canonical identity of the game this engine plays:
// scenario, effective payoff values and rounds per game.  The fitness
// subsystem incorporates it into cache keys so memoized results can never
// leak between scenarios.
func (e *Engine) GameID() string {
	return fmt.Sprintf("%s|rounds=%d", e.spec.ID(), e.rounds)
}

// Result holds the outcome of one Iterated Prisoner's Dilemma game.
type Result struct {
	// FitnessA and FitnessB are the total payoffs accumulated by each player
	// over all rounds.
	FitnessA float64
	FitnessB float64
	// CooperationsA and CooperationsB count how many rounds each player
	// cooperated; used by validation studies and tests.
	CooperationsA int
	CooperationsB int
	// Rounds is the number of rounds actually played.
	Rounds int
}

// Play runs one game between a and b and returns both players' accumulated
// fitness.  src is required when noise > 0; it may be nil for a noiseless
// game.  Play returns an error if the players' memory depths do not match
// the engine's.
func (e *Engine) Play(a, b Player, src *rng.Source) (Result, error) {
	if a.MemorySteps() != e.memSteps || b.MemorySteps() != e.memSteps {
		return Result{}, fmt.Errorf("game: player memory (%d, %d) does not match engine memory %d",
			a.MemorySteps(), b.MemorySteps(), e.memSteps)
	}
	if e.noise > 0 && src == nil {
		return Result{}, fmt.Errorf("game: rng source required (noise=%v)", e.noise)
	}
	if e.noise == 0 && e.kernel != KernelFullReplay && e.intPayoff {
		// Noiseless game over an integer-valued payoff matrix: the walk is
		// periodic and the closed-form totals are bit-identical to a full
		// replay (see KernelMode).  KernelBatch only changes batch routing,
		// so single games keep the KernelAuto fast path.  A game that ends
		// before its walk revisits a state counts as a scalar game.
		res, closed := e.playCycleClosing(a.Words(), b.Words())
		if closed {
			e.stats.cycleGames.Add(1)
		} else {
			e.stats.scalarGames.Add(1)
		}
		return res, nil
	}

	res := e.replay(e, a.Words(), b.Words(), src)
	e.stats.scalarGames.Add(1)
	return res, nil
}

// moveAt returns the move the packed move table w plays in state s.
func moveAt(w []uint64, s int) Move {
	return Move(w[s>>6] >> (uint(s) & 63) & 1)
}

// playRounds replays one game between the packed move tables wa and wb
// round by round on the two rolling state codes and the fused payoff
// table.  Under noise each round draws A's flip, then B's flip.
func (e *Engine) playRounds(wa, wb []uint64, src *rng.Source) Result {
	mask := NumStates(e.memSteps) - 1
	res := Result{Rounds: e.rounds}
	sA, sB := InitialState, InitialState
	for r := 0; r < e.rounds; r++ {
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
		res.FitnessA += e.table[codeA]
		res.FitnessB += e.table[codeB]
		sA = (sA<<2 | codeA) & mask
		sB = (sB<<2 | codeB) & mask
	}
	return res
}

// PlayFitness is a convenience wrapper around Play that returns only the
// focal player's fitness, matching the IPD() pseudo code of the paper which
// returns the fitness accumulated by the agent calling it.
func (e *Engine) PlayFitness(my, opp Player, src *rng.Source) (float64, error) {
	res, err := e.Play(my, opp, src)
	if err != nil {
		return 0, err
	}
	return res.FitnessA, nil
}
