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
// report strategy changes through Apply or Adopt.
//
// EvalIncremental reads the maintained row sums of an IncrementalMatrix.
// EvalCached sums SSet i's payoffs against its graph neighbours, in
// neighbour order, through the pair cache's batched ID path; a mirror of
// the strategy table's interned IDs keeps that path free of strategy
// encoding.
//
// On a complete graph with integer payoffs (DeltaExact), EvalCached takes
// the abundance path instead.  It keeps the number of SSets holding each
// interned ID, so
// Fitness(i) looks up each distinct opponent strategy once and weights it
// by its abundance: O(k) lookups for k distinct strategies present instead
// of O(S).  Every payoff and partial sum is then an integer below 2⁵³, so
// the sum equals the neighbour-order sum bit for bit.  The set of pairs
// looked up is also the neighbour loop's, so misses and games played are
// unchanged; only the lookup order differs.  Order can decide eviction
// victims, so the path runs only while the store has headroom for every
// pair the call looks up, and falls back to the neighbour loop otherwise.
//
// An Evaluator is not safe for concurrent use; each engine (or rank) owns
// one.  Evaluators over views of one shared store may run concurrently.
type Evaluator struct {
	cache  *PairCache
	graph  topology.Graph
	matrix *IncrementalMatrix // EvalIncremental
	ids    []uint32           // EvalCached: interned ID of every SSet's strategy
	abund  *abundance         // EvalCached abundance path; nil when its gates fail
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
	if g.Complete() && DeltaExact(eng) {
		ev.abund = &abundance{}
		for _, id := range ev.ids {
			ev.abund.add(id)
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
	if e.abund != nil {
		if total, ok, err := e.abundanceFitness(i); ok {
			return total, err
		}
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

// abundanceFitness is Fitness on the abundance path: one lookup per
// distinct strategy held by another SSet, weighted by how many hold it.
// SSet i itself is left out of its own strategy's count, so the self pair
// is looked up only when another SSet shares it.  ok is false, with
// nothing looked up, when the store lacks headroom for the call's pairs.
func (e *Evaluator) abundanceFitness(i int) (total float64, ok bool, err error) {
	a, my := e.abund, e.ids[i]
	a.opps, a.mult = a.opps[:0], a.mult[:0]
	for _, t := range a.present {
		m := a.count[t]
		if t == my {
			m--
		}
		if m > 0 {
			a.opps = append(a.opps, t)
			a.mult = append(a.mult, m)
		}
	}
	if !e.cache.headroom(len(a.opps)) {
		return 0, false, nil
	}
	if cap(a.res) < len(a.opps) {
		a.res = make([]game.Result, cap(a.opps))
	}
	res := a.res[:len(a.opps)]
	if err := e.cache.PlayIDBatch(my, a.opps, res); err != nil {
		return 0, true, err
	}
	for k, r := range res {
		total += float64(a.mult[k]) * r.FitnessA
	}
	return total, true, nil
}

// Apply records that SSet idx now holds strategy s (an adoption or
// mutation event): the matrix invalidates row idx and delta-updates the
// other rows, or the ID mirror re-interns s.  Adopt is the cheaper call
// for a strategy copied from another SSet.
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
	e.setID(idx, id)
	return nil
}

// Adopt records that SSet learner now holds SSet teacher's strategy (a
// pairwise-comparison adoption).  It is Apply without the interning: the
// teacher's ID is already known, so no strategy is encoded and no ID is
// issued.
func (e *Evaluator) Adopt(learner, teacher int) error {
	n := len(e.ids)
	if e.matrix != nil {
		n = e.matrix.Len()
	}
	if learner < 0 || learner >= n || teacher < 0 || teacher >= n {
		return fmt.Errorf("fitness: adoption %d <- %d outside table of %d strategies", learner, teacher, n)
	}
	if e.matrix != nil {
		return e.matrix.updateID(learner, e.matrix.ids[teacher])
	}
	e.setID(learner, e.ids[teacher])
	return nil
}

// setID points SSet idx's mirror entry, and the abundance counts, at id.
func (e *Evaluator) setID(idx int, id uint32) {
	if e.abund != nil {
		e.abund.remove(e.ids[idx])
		e.abund.add(id)
	}
	e.ids[idx] = id
}

// abundance counts the SSets holding each interned strategy ID and keeps
// the IDs with a nonzero count in a compact list, both updated in O(1) per
// strategy change.  The opps, mult and res slices are Fitness scratch.
type abundance struct {
	count   []int32  // count[id]: SSets holding id
	pos     []int32  // pos[id]: index of id in present while count[id] > 0
	present []uint32 // IDs with count > 0, in no particular order

	opps []uint32
	mult []int32
	res  []game.Result
}

// add counts one more SSet holding id and reports whether id is newly
// present (appended to present).
func (a *abundance) add(id uint32) bool {
	if int(id) >= len(a.count) {
		grow := int(id) + 1 - len(a.count)
		a.count = append(a.count, make([]int32, grow)...)
		a.pos = append(a.pos, make([]int32, grow)...)
	}
	a.count[id]++
	if a.count[id] > 1 {
		return false
	}
	a.pos[id] = int32(len(a.present))
	a.present = append(a.present, id)
	return true
}

// remove counts one SSet fewer holding id.  When none is left, id leaves
// present by swap-remove: it returns the position id vacated, which the
// last entry now fills, or -1 while id is still present.
func (a *abundance) remove(id uint32) int {
	a.count[id]--
	if a.count[id] > 0 {
		return -1
	}
	// Swap-remove: the order of present only decides the order of lookups,
	// which cannot change any sum or any stored pair (see Evaluator).
	p, last := a.pos[id], a.present[len(a.present)-1]
	a.present[p], a.pos[last] = last, p
	a.present = a.present[:len(a.present)-1]
	return int(p)
}
