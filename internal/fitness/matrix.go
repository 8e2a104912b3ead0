package fitness

import (
	"fmt"

	"evogame/internal/intern"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// IncrementalMatrix maintains the per-SSet fitness of the pairwise
// evaluation across generations: the summed focal payoff of SSet i's
// strategy against every SSet it interacts with, the "relative fitness" the
// Nature Agent compares during pairwise learning.
//
// Strategies are tracked in an intern.Table over the cache's registry, so
// row builds and updates go through PairCache.PlayID — integer pair
// lookups with no per-game encoding or string keys.  Interning happens once
// per Update, which is O(events) over a run, not O(games).
//
// Only the range [lo, hi) of SSets is materialised, so a distributed rank
// pays only for the block it owns while still tracking the full strategy
// table.  An SSet is "built" from its first Fitness request until its
// strategy next changes; only built SSets are kept current.
//
// Under a structured topology each built SSet owns a degree-indexed row:
// entry k is the payoff against its k-th neighbour, so memory is
// O(rows × degree).  A change of SSet t's strategy invalidates t's row and
// gives every built neighbour an O(1) delta update (subtract the stale
// payoff against t, add the payoff against t's new strategy).
//
// In a well-mixed population (nil or complete graph) SSets holding the same
// strategy have the same fitness, so rows are keyed by strategy instead of
// by SSet (see strategyRows): the cost of a change is one update per
// distinct strategy held by a built SSet, with a lookup only for a pair the
// row does not hold yet.  The pairs looked up are exactly those of an
// SSet-keyed row, so misses and games played are unchanged; only hits fall.
//
// IncrementalMatrix is only used for noiseless populations of deterministic
// strategies with integer payoffs (the engines bypass or downgrade it
// otherwise), so every pair payoff is a pure function of the pair and every
// sum is an exact integer, whatever the order of its updates; see the
// package documentation for the cache-validity conditions.
//
// The type is not safe for concurrent use; each engine (or rank) owns one.
type IncrementalMatrix struct {
	cache  *PairCache
	graph  topology.Graph // nil means well-mixed (all pairs interact)
	table  *intern.Table
	lo, hi int
	built  []bool // built[r]: SSet lo+r is kept current

	// Degree-indexed graph rows (graph != nil): pay[r][k] is SSet lo+r's
	// payoff against its k-th neighbour and sums[r] their sum.
	pay  [][]float64
	sums []float64

	// Strategy-keyed rows (graph == nil).
	wm strategyRows
}

// NewIncrementalMatrix returns a matrix tracking the given strategy table
// and materialising the rows [lo, hi).  A nil graph selects the well-mixed
// population (every pair interacts); a non-nil graph restricts evaluation
// to its edges and must span exactly len(table) SSets.  Every table entry
// is interned into the cache's registry; keep the table current with
// Update.
func NewIncrementalMatrix(cache *PairCache, g topology.Graph, table []strategy.Strategy, lo, hi int) (*IncrementalMatrix, error) {
	if cache == nil {
		return nil, fmt.Errorf("fitness: nil pair cache")
	}
	if lo < 0 || hi < lo || hi > len(table) {
		return nil, fmt.Errorf("fitness: row range [%d,%d) invalid for %d strategies", lo, hi, len(table))
	}
	if g != nil && g.Len() != len(table) {
		return nil, fmt.Errorf("fitness: graph spans %d SSets but the table has %d", g.Len(), len(table))
	}
	tab, err := intern.NewTable(cache.Interner(), table)
	if err != nil {
		return nil, fmt.Errorf("fitness: %w", err)
	}
	if g != nil && g.Complete() {
		// The complete graph is the well-mixed population.
		g = nil
	}
	m := &IncrementalMatrix{
		cache: cache,
		graph: g,
		table: tab,
		lo:    lo,
		hi:    hi,
		built: make([]bool, hi-lo),
		wm:    strategyRows{rowOf: intern.NewPages[int32](cache.Interner())},
	}
	if g == nil {
		return m, nil
	}
	m.pay = make([][]float64, hi-lo)
	m.sums = make([]float64, hi-lo)
	for r := range m.pay {
		m.pay[r] = make([]float64, g.Degree(lo+r))
	}
	return m, nil
}

// neighborPos returns the position of j in i's ascending neighbor list, or
// -1 if the two are not adjacent (binary search, O(log degree)).
func neighborPos(g topology.Graph, i, j int) int {
	lo, hi := 0, g.Degree(i)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.Neighbor(i, mid) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.Degree(i) && g.Neighbor(i, lo) == j {
		return lo
	}
	return -1
}

// buildGraphRow fills SSet i's degree-indexed row: O(degree) lookups.
func (m *IncrementalMatrix) buildGraphRow(i int) error {
	r := i - m.lo
	ids := m.table.IDs()
	my := ids[i]
	sum := 0.0
	deg := m.graph.Degree(i)
	for k := 0; k < deg; k++ {
		j := m.graph.Neighbor(i, k)
		res, err := m.cache.PlayID(my, ids[j])
		if err != nil {
			return fmt.Errorf("fitness: row %d vs %d: %w", i, j, err)
		}
		m.pay[r][k] = res.FitnessA
		sum += res.FitnessA
	}
	m.sums[r] = sum
	return nil
}

// Fitness returns the pairwise fitness of SSet i (the summed focal payoff
// against every SSet it interacts with), building its row through the
// cache if it has not been materialised yet.  i must lie in [lo, hi).
func (m *IncrementalMatrix) Fitness(i int) (float64, error) {
	if i < m.lo || i >= m.hi {
		return 0, fmt.Errorf("fitness: row %d outside materialised range [%d,%d)", i, m.lo, m.hi)
	}
	r := i - m.lo
	if m.graph != nil {
		if !m.built[r] {
			if err := m.buildGraphRow(i); err != nil {
				return 0, err
			}
			m.built[r] = true
		}
		return m.sums[r], nil
	}
	id := m.table.ID(i)
	if !m.built[r] {
		if err := m.wm.acquire(m.cache, m.table, id); err != nil {
			return 0, err
		}
		m.built[r] = true
	}
	return m.wm.row(id).sum, nil
}

// Update records that SSet idx now holds strategy s (an adoption or
// mutation event).  The new strategy is interned once; row idx is
// invalidated and every other built row that interacts with idx is brought
// up to date — O(degree) lookups under a sparse topology, at most one per
// distinct built strategy well-mixed — with new game kernels only for
// pairs never seen before.
func (m *IncrementalMatrix) Update(idx int, s strategy.Strategy) error {
	ch, err := m.table.Set(idx, s)
	if err != nil {
		return fmt.Errorf("fitness: update: %w", err)
	}
	return m.apply(idx, ch)
}

// apply brings the rows up to date with the table change ch of SSet idx.
// A nil matrix (EvalCached) has no rows.
func (m *IncrementalMatrix) apply(idx int, ch intern.Change) error {
	if m == nil {
		return nil
	}
	wasBuilt := idx >= m.lo && idx < m.hi && m.built[idx-m.lo]
	if wasBuilt {
		m.built[idx-m.lo] = false
	}
	if m.graph == nil {
		if wasBuilt {
			m.wm.release(ch.Old)
		}
		return m.wm.change(m.cache, m.table, ch)
	}
	// Only idx's neighbors interact with it: walk the neighbor list
	// (ascending) instead of scanning and adjacency-testing every
	// materialised row.
	deg := m.graph.Degree(idx)
	for k := 0; k < deg; k++ {
		i := m.graph.Neighbor(idx, k)
		if i < m.lo || i >= m.hi || !m.built[i-m.lo] {
			continue
		}
		col := neighborPos(m.graph, i, idx)
		if col < 0 {
			return fmt.Errorf("fitness: graph edge %d->%d has no reverse edge", idx, i)
		}
		r := i - m.lo
		res, err := m.cache.PlayID(m.table.ID(i), ch.New)
		if err != nil {
			return fmt.Errorf("fitness: delta update row %d vs %d: %w", i, idx, err)
		}
		m.sums[r] += res.FitnessA - m.pay[r][col]
		m.pay[r][col] = res.FitnessA
	}
	return nil
}

// strategyRows holds the well-mixed rows of an IncrementalMatrix, one per
// interned strategy s held by at least one built SSet.  The matrix's table
// counts the SSets of the whole population holding each strategy
// (mult(s,t) = count[t] − [t=s] is then the number of opponents holding t
// that an SSet holding s faces), and its present list numbers the columns
// of every row.  A live row holds pay(s,t) for every present t with
// mult(s,t) ≥ 1 and keeps sum = Σ_t mult(s,t)·pay(s,t).
type strategyRows struct {
	rowOf intern.Pages[int32] // rowOf[id]: 1 + index into rows of id's row, 0 for none
	// rows holds the live rows; the slots past len(rows) keep the slices of
	// dead rows for reuse.
	rows []stratRow
}

// stratRow is the fitness row of one strategy.
type stratRow struct {
	id   uint32
	refs int32 // built SSets holding id
	sum  float64
	pay  []float64 // pay[p]: payoff of id against the table's Present()[p] ...
	has  []bool    // ... valid where has[p] is set
}

// row returns id's live row; id must be held by a built SSet.
func (w *strategyRows) row(id uint32) *stratRow {
	return &w.rows[w.rowOf.Get(id)-1]
}

// acquire counts one more built SSet holding id, building id's row (one
// lookup per distinct strategy it faces in tab) if none is live.
func (w *strategyRows) acquire(c *PairCache, tab *intern.Table, id uint32) error {
	rowOf := w.rowOf.At(id)
	if *rowOf != 0 {
		w.row(id).refs++
		return nil
	}
	present := tab.Present()
	n := len(w.rows)
	if n < cap(w.rows) {
		w.rows = w.rows[:n+1] // reuse a dead row's slices
	} else {
		w.rows = append(w.rows, stratRow{})
	}
	r := &w.rows[n]
	*r = stratRow{
		id:   id,
		refs: 1,
		pay:  append(r.pay[:0], make([]float64, len(present))...),
		has:  append(r.has[:0], make([]bool, len(present))...),
	}
	*rowOf = int32(n + 1)
	for p, t := range present {
		mult := tab.Count(t)
		if t == id {
			mult--
		}
		if mult == 0 {
			continue
		}
		res, err := c.PlayID(id, t)
		if err != nil {
			w.release(id)
			return fmt.Errorf("fitness: row of strategy %d vs %d: %w", id, t, err)
		}
		r.pay[p], r.has[p] = res.FitnessA, true
		r.sum += float64(mult) * res.FitnessA
	}
	return nil
}

// release counts one built SSet fewer holding id, dropping id's row when
// none is left.
func (w *strategyRows) release(id uint32) {
	r := w.row(id)
	if r.refs--; r.refs > 0 {
		return
	}
	i, last := int(w.rowOf.Get(id)-1), len(w.rows)-1
	w.rows[i], w.rows[last] = w.rows[last], w.rows[i]
	*w.rowOf.At(w.rows[i].id) = int32(i + 1)
	*w.rowOf.At(id) = 0
	w.rows = w.rows[:last]
}

// change brings every live row up to date with one SSet's move from
// ch.Old to ch.New in tab: subtract pay(s,Old), move the columns as the
// table's present list moved, and add pay(s,New) where an opponent now
// holds New, looking it up only if the row lacks it.
func (w *strategyRows) change(c *PairCache, tab *intern.Table, ch intern.Change) error {
	for k := range w.rows {
		// mult(s,Old) ≥ 1 before the change: another SSet held Old, or s ≠ Old.
		r := &w.rows[k]
		r.sum -= r.pay[ch.OldPos]
		if p := ch.Vacated; p >= 0 {
			last := len(r.pay) - 1
			r.pay[p], r.has[p] = r.pay[last], r.has[last]
			r.pay, r.has = r.pay[:last], r.has[:last]
		}
		if ch.Added {
			r.pay, r.has = append(r.pay, 0), append(r.has, false)
		}
	}
	pb, single := ch.NewPos, tab.Count(ch.New) == 1
	for k := range w.rows {
		r := &w.rows[k]
		if r.id == ch.New && single {
			continue
		}
		if !r.has[pb] {
			res, err := c.PlayID(r.id, ch.New)
			if err != nil {
				return fmt.Errorf("fitness: row of strategy %d vs %d: %w", r.id, ch.New, err)
			}
			r.pay[pb], r.has[pb] = res.FitnessA, true
		}
		r.sum += r.pay[pb]
	}
	return nil
}
