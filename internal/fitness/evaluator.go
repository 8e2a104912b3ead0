package fitness

import (
	"fmt"

	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Evaluator owns the cached or incremental fitness evaluation of a run (the
// serial engine, rows [0, S)) or of one rank's block of SSets (the
// distributed engine, rows [lo, hi)).  It is the single place that decides
// which fitness algorithm runs and when the pair cache is valid: both
// engines build one through NewEvaluator and then only ask for Fitness and
// report strategy changes through Apply or Adopt.
//
// Both modes read one intern.Table over the cache's registry, the engine's
// only record of which strategy each SSet holds: the IncrementalMatrix's
// in EvalIncremental, the evaluator's own in EvalCached.  Table exposes it
// to the engine.
//
// EvalIncremental reads the maintained row sums of an IncrementalMatrix.
// EvalCached sums SSet i's payoffs against its graph neighbours, in
// neighbour order, through the pair cache's batched ID path, reading the
// table's interned IDs so that path stays free of strategy encoding.
//
// On a complete graph with integer payoffs (DeltaExact), EvalCached takes
// the abundance path instead.  It reads the number of SSets holding each
// interned ID from the table, so Fitness(i) looks up each distinct
// opponent strategy once and weights it by its abundance: O(k) lookups for
// k distinct strategies present instead of O(S).  Every payoff and partial
// sum is then an integer below 2⁵³, so the sum equals the neighbour-order
// sum bit for bit.  The set of pairs looked up is also the neighbour
// loop's, so misses and games played are unchanged; only the lookup order
// differs.  Order can decide eviction victims, so the path runs only while
// the store has headroom for every pair the call looks up, and falls back
// to the neighbour loop otherwise.
//
// The evaluator keeps the store's liveness (see pairStore): its table
// holds every ID its SSets hold, it brings an ID's cold pairs back before
// looking up any pair of it, and it tells the run's clock (see runClock)
// when its table leaves an ID, so the store may move pairs of extinct
// strategies out of its probed table or retire their IDs.  A distributed
// rank's evaluator also ends each generation on that clock
// (EndGeneration).  Release leaves every ID when the run is finished.
//
// An Evaluator is not safe for concurrent use; each engine (or rank) owns
// one.  Evaluators over views of one shared store may run concurrently.
type Evaluator struct {
	cache  *PairCache
	member int // index on the run's clock
	graph  topology.Graph
	table  *intern.Table
	matrix *IncrementalMatrix // EvalIncremental
	// byAbundance selects EvalCached's abundance path; opps, mult and res
	// are its Fitness scratch.
	byAbundance bool
	opps        []uint32
	mult        []int
	res         []game.Result
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
// (see PairCache.NewView) and joins the run shared was made for (see
// PairCache.ForRun), or runs alone in a store shared across runs if it was
// made for none.  Otherwise it plays through a private PairCache, alone.
// Strategy IDs are interned in table order, then one per Apply.
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
		if cache.run == nil {
			cache.run = newRunClock(cache.store, 1, true)
		}
	} else if cache, err = NewPairCache(eng); err != nil {
		return nil, err
	} else {
		cache.run = newRunClock(cache.store, 1, false)
	}
	member, err := cache.run.join()
	if err != nil {
		return nil, err
	}
	ev := &Evaluator{cache: cache, member: member, graph: g}
	if mode == EvalIncremental {
		if ev.matrix, err = NewIncrementalMatrix(cache, g, table, lo, hi); err != nil {
			return nil, err
		}
		ev.table = ev.matrix.table
	} else {
		if ev.table, err = intern.NewTable(cache.Interner(), table); err != nil {
			return nil, fmt.Errorf("fitness: %w", err)
		}
		ev.byAbundance = g.Complete() && DeltaExact(eng)
	}
	if cache.run.pin {
		for _, id := range ev.table.Present() {
			cache.store.reg.Pin(id)
		}
	}
	cache.store.bringBack(ev.table.Present(), ev.table.Present())
	return ev, nil
}

// EndGeneration tells the run's clock that the evaluator has applied every
// strategy change of one more generation.  A distributed rank calls it
// once per generation; a run of one evaluator need not.  A nil evaluator
// does nothing.
func (e *Evaluator) EndGeneration() {
	if e != nil {
		e.cache.run.advance(e.member)
	}
}

// Release leaves every ID the evaluator's table holds, so the store may
// move their pairs out of its probed table or retire them.  Call it once,
// when the run is finished, and use the evaluator no more.  A nil
// evaluator does nothing.
func (e *Evaluator) Release() {
	if e == nil {
		return
	}
	e.table.Release()
	for _, id := range e.table.Present() {
		e.cache.run.left(e.member, id)
	}
	e.cache.run.release(e.member)
}

// Cache returns the pair cache (or view) the evaluator plays through, for
// its play counts and metrics.  A nil evaluator has no cache.
func (e *Evaluator) Cache() *PairCache {
	if e == nil {
		return nil
	}
	return e.cache
}

// Table returns the strategy table the evaluator reads and its Apply and
// Adopt keep current.
func (e *Evaluator) Table() *intern.Table { return e.table }

// Fitness returns SSet i's summed payoff against its graph neighbours; i
// must lie in the evaluator's row range.  In EvalCached mode the lookups go
// one game.BatchLanes block at a time, so misses fill through the
// bit-sliced batch kernel and hits allocate nothing.
func (e *Evaluator) Fitness(i int) (float64, error) {
	if e.matrix != nil {
		return e.matrix.Fitness(i)
	}
	if e.byAbundance {
		if total, ok, err := e.abundanceFitness(i); ok {
			return total, err
		}
	}
	var (
		ids [game.BatchLanes]uint32
		res [game.BatchLanes]game.Result
	)
	all := e.table.IDs()
	my := all[i]
	total := 0.0
	deg := e.graph.Degree(i)
	for lo := 0; lo < deg; lo += game.BatchLanes {
		n := min(game.BatchLanes, deg-lo)
		for k := 0; k < n; k++ {
			ids[k] = all[e.graph.Neighbor(i, lo+k)]
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

// abundanceFitness is Fitness on the abundance path: one lookup per
// distinct strategy held by another SSet, weighted by how many hold it.
// SSet i itself is left out of its own strategy's count, so the self pair
// is looked up only when another SSet shares it.  ok is false, with
// nothing looked up, when the store lacks headroom for the call's pairs.
func (e *Evaluator) abundanceFitness(i int) (total float64, ok bool, err error) {
	my := e.table.ID(i)
	e.opps, e.mult = e.opps[:0], e.mult[:0]
	for _, t := range e.table.Present() {
		m := e.table.Count(t)
		if t == my {
			m--
		}
		if m > 0 {
			e.opps = append(e.opps, t)
			e.mult = append(e.mult, m)
		}
	}
	if !e.cache.headroom(len(e.opps)) {
		return 0, false, nil
	}
	if cap(e.res) < len(e.opps) {
		e.res = make([]game.Result, cap(e.opps))
	}
	res := e.res[:len(e.opps)]
	if err := e.cache.PlayIDBatch(my, e.opps, res); err != nil {
		return 0, true, err
	}
	for k, r := range res {
		total += float64(e.mult[k]) * r.FitnessA
	}
	return total, true, nil
}

// Apply records that SSet idx now holds strategy s (an adoption or
// mutation event): the table interns s once, and the matrix invalidates
// row idx and delta-updates the other rows.  Adopt is the cheaper call for
// a strategy copied from another SSet.
func (e *Evaluator) Apply(idx int, s strategy.Strategy) error {
	ch, err := e.table.Set(idx, s)
	if err != nil {
		return fmt.Errorf("fitness: update: %w", err)
	}
	return e.follow(idx, ch)
}

// Adopt records that SSet learner now holds SSet teacher's strategy (a
// pairwise-comparison adoption).  It is Apply without the interning: the
// table copies the teacher's ID, so no strategy is encoded and no ID is
// issued.
func (e *Evaluator) Adopt(learner, teacher int) error {
	ch, err := e.table.Adopt(learner, teacher)
	if err != nil {
		return fmt.Errorf("fitness: %w", err)
	}
	return e.follow(learner, ch)
}

// follow brings the store's liveness and the matrix up to date with the
// table change ch of SSet idx.  New's cold pairs come back before the
// matrix looks any of its pairs up, and the run learns that the table left
// Old afterwards.
func (e *Evaluator) follow(idx int, ch intern.Change) error {
	if ch.Added {
		e.cache.store.bringBack([]uint32{ch.New}, e.table.Present())
	}
	err := e.matrix.apply(idx, ch)
	if ch.Vacated >= 0 {
		e.cache.run.left(e.member, ch.Old)
	}
	return err
}
