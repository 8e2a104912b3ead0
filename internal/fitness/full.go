package fitness

import (
	"fmt"
	"runtime"
	"sync"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// gameRange is the half-open range [lo, hi) of opponent indices one worker
// plays: the "determine opponents to play based on rank" step of the
// paper's pseudo code.
type gameRange struct{ lo, hi int }

// partitionOpponents splits numOpponents games across numWorkers workers
// as evenly as possible, in contiguous ranges (the first numOpponents mod
// numWorkers workers receive one extra game).  It panics if numWorkers <= 0
// or numOpponents < 0.
func partitionOpponents(numOpponents, numWorkers int) []gameRange {
	if numWorkers <= 0 {
		panic(fmt.Sprintf("fitness: numWorkers must be positive, got %d", numWorkers))
	}
	if numOpponents < 0 {
		panic(fmt.Sprintf("fitness: numOpponents must be non-negative, got %d", numOpponents))
	}
	ranges := make([]gameRange, numWorkers)
	base := numOpponents / numWorkers
	extra := numOpponents % numWorkers
	lo := 0
	for i := range ranges {
		size := base
		if i < extra {
			size++
		}
		ranges[i] = gameRange{lo, lo + size}
		lo += size
	}
	return ranges
}

// sumRange plays focal against opponents[lo:hi) in index order and returns
// the summed focal payoff.  When payoffs is non-nil it instead stores game
// i's focal payoff at payoffs[i] and returns zero.  Games go through the
// engine's bit-sliced batch kernel one game.BatchLanes-sized block at a
// time; the result buffers live on the stack, so the steady state
// allocates nothing.  perGame, when non-nil, holds game i's source at
// index i.
func sumRange(eng *game.Engine, focal strategy.Strategy, opponents []strategy.Strategy, perGame []rng.Source, payoffs []float64, lo, hi int) (float64, error) {
	var (
		players [game.BatchLanes]game.Player
		srcs    [game.BatchLanes]*rng.Source
		results [game.BatchLanes]game.Result
	)
	total := 0.0
	for c0 := lo; c0 < hi; c0 += game.BatchLanes {
		c1 := min(c0+game.BatchLanes, hi)
		n := c1 - c0
		for k := 0; k < n; k++ {
			if opponents[c0+k] == nil {
				return 0, fmt.Errorf("fitness: nil opponent strategy at index %d", c0+k)
			}
			players[k] = opponents[c0+k]
			if perGame != nil {
				srcs[k] = &perGame[c0+k]
			}
		}
		var chunkSrcs []*rng.Source
		if perGame != nil {
			chunkSrcs = srcs[:n]
		}
		if err := eng.PlayBatch(focal, players[:n], chunkSrcs, results[:n]); err != nil {
			return 0, fmt.Errorf("fitness: opponents [%d,%d): %w", c0, c1, err)
		}
		for k := 0; k < n; k++ {
			if payoffs != nil {
				payoffs[c0+k] = results[k].FitnessA
			} else {
				total += results[k].FitnessA
			}
		}
	}
	return total, nil
}

// PlayAll plays focal against every opponent and returns the summed focal
// payoff: one SSet's EvalFull fitness, the "relative fitness" the Nature
// Agent compares during pairwise learning.  The games are split into
// contiguous ranges over workers goroutines, the thread tier of the
// paper's two-level decomposition (an SSet's agents sharing its opponent
// games).  Workers zero selects GOMAXPROCS — the single point where that
// default resolves; negative values are rejected.
//
// The strategies are the engines' pure move tables.  src provides the
// randomness of a noisy engine's games and may be nil for a noiseless
// one.  It is split once per opponent, in opponent order, before any game
// runs, and the payoffs are summed in opponent order, so the result is
// bit-identical for a given src seed whatever the worker count, even for
// payoffs whose float sums depend on the order of addition.
func PlayAll(eng *game.Engine, focal strategy.Strategy, opponents []strategy.Strategy, workers int, src *rng.Source) (float64, error) {
	if eng == nil {
		return 0, fmt.Errorf("fitness: nil engine")
	}
	if focal == nil {
		return 0, fmt.Errorf("fitness: nil focal strategy")
	}
	if workers < 0 {
		return 0, fmt.Errorf("fitness: workers must be non-negative, got %d (0 selects GOMAXPROCS)", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(opponents))
	if len(opponents) == 0 {
		return 0, nil
	}

	// Pre-derive one source per opponent so that the schedule (which worker
	// plays which game) cannot change the stream a game sees.  The sources
	// are values in one array: a noisy call allocates once, not per game.
	var perGame []rng.Source
	if eng.Noise() > 0 {
		if src == nil {
			return 0, fmt.Errorf("fitness: a noisy engine needs a source")
		}
		perGame = make([]rng.Source, len(opponents))
		for i := range perGame {
			src.SplitInto(&perGame[i])
		}
	}

	if workers == 1 {
		return sumRange(eng, focal, opponents, perGame, nil, 0, len(opponents))
	}

	// Each worker stores its games' payoffs by opponent index; summing them
	// here in index order reproduces the single-worker sum exactly.
	payoffs := make([]float64, len(opponents))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w, r := range partitionOpponents(len(opponents), workers) {
		wg.Add(1)
		// perGame goes in by value: capturing the variable would move it to
		// the heap on every call, the single-worker path included.
		go func(w int, r gameRange, perGame []rng.Source) {
			defer wg.Done()
			_, errs[w] = sumRange(eng, focal, opponents, perGame, payoffs, r.lo, r.hi)
		}(w, r, perGame)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := 0.0
	for _, p := range payoffs {
		total += p
	}
	return total, nil
}
