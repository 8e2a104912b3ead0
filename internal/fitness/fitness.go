// Package fitness is the shared incremental-fitness subsystem used by both
// simulation engines (the serial engine in internal/population and the
// distributed engine in internal/parallel).
//
// The observation behind the package is the one that makes the paper's
// all-pairs workload tractable at scale: a noiseless Iterated Prisoner's
// Dilemma game between two deterministic strategies is a pure function of
// the strategy pair.  Replaying it every generation — as the literal
// implementation of the paper's pseudo code does — performs O(S²) games per
// generation even though at most one or two of the S Strategy Sets change
// strategy per generation.  The package provides two layers on top of the
// game kernel:
//
//   - PairCache memoizes game.Result per interned strategy pair, so each
//     distinct pair is played at most once for the lifetime of the cache.
//     A pair is stored once and serves both orientations, since the
//     opponent's fitness is usually requested next.  Lookups probe only
//     the pairs whose two strategies some run still holds; the others wait
//     in a compact cold log until a strategy returns.
//   - IncrementalMatrix maintains fitness sums across generations: rows
//     are built lazily through the cache and, when the Nature Agent changes
//     the strategy of one SSet, every other row receives an O(1) delta
//     update to its sum (subtract the stale pair payoff, add the new one).
//     Well-mixed rows are kept per distinct strategy rather than per SSet.
//     Per-generation cost therefore drops from O(S²) games to O(D²)
//     distinct-pair kernels amortised over the run plus O(D) updates per
//     adoption/mutation event (O(degree) under a sparse topology), where D
//     is the number of distinct strategies present.
//   - Evaluator is what the engines use: NewEvaluator resolves the
//     requested EvalMode against the validity conditions below once per
//     run (or rank) and either returns the evaluator that computes every
//     fitness through the two layers above, or nil for the engine's own
//     EvalFull path.
//
// # Cost of an EvalCached fitness
//
// EvalCached sums an SSet's payoff over its graph neighbours, one pair
// lookup each: O(degree) lookups per fitness.  The abundance path cuts a
// well-mixed population to O(k) lookups, where k is the number of distinct
// strategies present (13–26 in a memory-six population of 128 SSets).  The
// Evaluator reads how many SSets hold each interned strategy from its
// intern.Table and looks each distinct opponent strategy up once, weighted
// by that count.  It runs only when three gates hold:
//
//   - the graph is complete (well-mixed),
//   - the payoff matrix is integer-valued (DeltaExact), so every weighted
//     sum is exact in any order, and
//   - the mode is EvalCached (EvalIncremental keeps its matrix).
//
// It also needs headroom in the store for every pair of the call, so that
// lookup order cannot change which pairs eviction drops; without it the
// neighbour-order sum runs.
//
// # Cache validity conditions
//
// A pair result may be memoized if and only if the game is a pure function
// of the strategy pair.  The engines' strategy tables hold pure move tables
// only (nature.Start rejects anything else, mutation draws pure ones and
// learning copies present ones), so that is the case exactly when the game
// is noiseless.  Memoizes is that one decision for a run: NewStore builds
// no store and NewEvaluator returns nil for a noisy run or EvalFull, so the
// engines stay on their full evaluation paths and the random-number
// streams — and therefore the trajectories — are bit-for-bit identical to
// EvalFull.
//
// The delta update of IncrementalMatrix subtracts and re-adds float64 pair
// payoffs.  With the standard Prisoner's Dilemma payoff matrix (and any
// integer-valued matrix) every fitness sum is an exactly-representable
// integer, so the delta-updated sums are bit-identical to freshly computed
// ones; this is what lets the engines guarantee EvalFull, EvalCached and
// EvalIncremental produce identical dynamics for identical seeds.
package fitness

import (
	"fmt"

	"evogame/internal/game"
)

// EvalMode selects how an engine evaluates Strategy-Set fitness.
type EvalMode int

const (
	// EvalFull replays every game of every evaluation, exactly as the
	// paper's implementation does.  It is the reference mode and the one the
	// scaling studies measure, since the volume of game play is the point.
	EvalFull EvalMode = iota
	// EvalCached memoizes per-pair game results in a PairCache that persists
	// across generations; each distinct strategy pair is played at most once
	// for the lifetime of a run.
	EvalCached
	// EvalIncremental additionally maintains fitness sums in an
	// IncrementalMatrix, so generations without strategy changes replay
	// nothing and a strategy change costs at most one row build plus one
	// delta update per distinct strategy (per neighbour on a sparse graph).
	EvalIncremental
)

// String implements fmt.Stringer.
func (m EvalMode) String() string {
	switch m {
	case EvalFull:
		return "full"
	case EvalCached:
		return "cached"
	case EvalIncremental:
		return "incremental"
	default:
		return fmt.Sprintf("EvalMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined evaluation modes.
func (m EvalMode) Valid() bool {
	return m >= EvalFull && m <= EvalIncremental
}

// ParseEvalMode maps the names accepted by command-line flags ("full",
// "cached", "incremental") to an EvalMode.
func ParseEvalMode(s string) (EvalMode, error) {
	switch s {
	case "full":
		return EvalFull, nil
	case "cached":
		return EvalCached, nil
	case "incremental":
		return EvalIncremental, nil
	default:
		return EvalFull, fmt.Errorf("fitness: unknown eval mode %q (want full, cached or incremental)", s)
	}
}

// Memoizes reports whether a run in mode whose games have per-move error
// probability noise evaluates fitness through a pair store.  Every engine
// table is pure, so noise alone takes a cached mode off the store.
func Memoizes(mode EvalMode, noise float64) bool {
	return mode != EvalFull && noise == 0
}

// NewStore returns an empty pair store for runs of the game cfg describes
// in mode, or nil when such a run does not memoize (see Memoizes).  Runs
// evaluate through views over it (see PairCache.ForRun): one run's
// evaluators, or the replicates of an ensemble.  The store's own engine
// never plays a game; each view plays its misses through the engine of the
// evaluator that made it.
func NewStore(cfg game.EngineConfig, mode EvalMode) (*PairCache, error) {
	if !Memoizes(mode, cfg.Noise) {
		return nil, nil
	}
	eng, err := game.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return NewPairCache(eng)
}
