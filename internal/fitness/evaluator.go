package fitness

import (
	"fmt"

	"evogame/internal/game"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Evaluator owns the cached or incremental fitness evaluation of a run (the
// serial engine, rows [0, S)) or of one rank's block of SSets (the
// distributed engine, rows [lo, hi)).  It is the single place that decides
// which fitness algorithm runs and when the pair cache is valid: both
// engines build one through NewEvaluator and then only ask for Fitness and
// report strategy changes through Apply.
//
// EvalIncremental reads the maintained row sums of an IncrementalMatrix.
// EvalCached sums SSet i's payoffs against its graph neighbours, in
// neighbour order, through the pair cache's batched ID path; a mirror of
// the strategy table's interned IDs keeps that path free of strategy
// encoding.
//
// An Evaluator is not safe for concurrent use; each engine (or rank) owns
// one.  Evaluators over views of one shared store may run concurrently.
type Evaluator struct {
	cache  *PairCache
	graph  topology.Graph
	matrix *IncrementalMatrix // EvalIncremental
	ids    []uint32           // EvalCached: interned ID of every SSet's strategy
}

// NewEvaluator returns the evaluator for a run over the given strategy table
// and interaction graph, materialising rows [lo, hi).  The requested mode
// is resolved once through EffectiveMode and CacheUsable.  It returns nil,
// nil when the run must stay on the engine's own EvalFull path: mode
// EvalFull, a noisy engine, or a table that is not all deterministic and
// encodable (mixed strategies).  Keeping those runs off the cache leaves
// their random-number streams, and so their trajectories, exactly those of
// EvalFull.
//
// When shared is non-nil the evaluator plays through a view over its store
// (see PairCache.NewView), otherwise through a private PairCache.  Strategy
// IDs are interned in table order, then one per Apply.
func NewEvaluator(eng *game.Engine, g topology.Graph, table []strategy.Strategy, lo, hi int, mode EvalMode, shared *PairCache) (*Evaluator, error) {
	mode = EffectiveMode(eng, mode)
	if mode == EvalFull || !CacheUsable(eng, table) {
		return nil, nil
	}
	if g == nil || g.Len() != len(table) {
		return nil, fmt.Errorf("fitness: evaluator needs a graph spanning the %d-strategy table", len(table))
	}
	if lo < 0 || hi < lo || hi > len(table) {
		return nil, fmt.Errorf("fitness: row range [%d,%d) invalid for %d strategies", lo, hi, len(table))
	}
	var cache *PairCache
	var err error
	if shared != nil {
		// Lookups are served from (and misses warm) the shared store, while
		// the view's counters and kernel statistics stay this run's.
		if cache, err = shared.NewView(eng); err != nil {
			return nil, fmt.Errorf("fitness: shared cache: %w", err)
		}
	} else if cache, err = NewPairCache(eng); err != nil {
		return nil, err
	}
	ev := &Evaluator{cache: cache, graph: g}
	if mode == EvalIncremental {
		if ev.matrix, err = NewIncrementalMatrix(cache, g, table, lo, hi); err != nil {
			return nil, err
		}
		return ev, nil
	}
	ev.ids = make([]uint32, len(table))
	for i, s := range table {
		// CacheUsable guarantees every entry is encodable.
		if ev.ids[i], err = cache.Interner().Intern(s); err != nil {
			return nil, fmt.Errorf("fitness: interning strategy %d: %w", i, err)
		}
	}
	return ev, nil
}

// Cache returns the pair cache (or view) the evaluator plays through, for
// its play counts and metrics.  A nil evaluator has no cache.
func (e *Evaluator) Cache() *PairCache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Fitness returns SSet i's summed payoff against its graph neighbours; i
// must lie in the evaluator's row range.  In EvalCached mode the lookups go
// one game.BatchLanes block at a time, so misses fill through the
// bit-sliced batch kernel and hits allocate nothing.
func (e *Evaluator) Fitness(i int) (float64, error) {
	if e.matrix != nil {
		return e.matrix.Fitness(i)
	}
	var (
		ids [game.BatchLanes]uint32
		res [game.BatchLanes]game.Result
	)
	my := e.ids[i]
	total := 0.0
	deg := e.graph.Degree(i)
	for lo := 0; lo < deg; lo += game.BatchLanes {
		n := min(game.BatchLanes, deg-lo)
		for k := 0; k < n; k++ {
			ids[k] = e.ids[e.graph.Neighbor(i, lo+k)]
		}
		if err := e.cache.PlayIDBatch(my, ids[:n], res[:n]); err != nil {
			return 0, err
		}
		for k := 0; k < n; k++ {
			total += res[k].FitnessA
		}
	}
	return total, nil
}

// Apply records that SSet idx now holds strategy s (an adoption or
// mutation event): the matrix invalidates row idx and delta-updates the
// other rows, or the ID mirror re-interns s.
func (e *Evaluator) Apply(idx int, s strategy.Strategy) error {
	if e.matrix != nil {
		return e.matrix.Update(idx, s)
	}
	if idx < 0 || idx >= len(e.ids) {
		return fmt.Errorf("fitness: update index %d outside table of %d strategies", idx, len(e.ids))
	}
	id, err := e.cache.Interner().Intern(s)
	if err != nil {
		return fmt.Errorf("fitness: interning update: %w", err)
	}
	e.ids[idx] = id
	return nil
}
