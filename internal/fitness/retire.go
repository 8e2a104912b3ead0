package fitness

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// retireFrom is the memory depth from which a store retires the IDs of
// extinct strategies instead of demoting their pairs to the cold log.
// From memory three up a strategy's move table has at least 64 bits, and
// mutation draws a uniformly random one while adoption copies a present
// one, so a strategy no table holds any more practically never returns;
// if it does, it gets a fresh ID and replays to the same noiseless result.
// Below that, extinct strategies re-enter often and the cold log serves
// them.
const retireFrom = 3

// runClock is the generation clock of the evaluators of one run (one
// member for a serial run or ensemble replicate, one per SSet rank for a
// distributed run), which decides when an ID the run's tables no longer
// hold is retired.  Every member applies the same strategy-table updates,
// but members run up to a few generations apart, so an ID a leading member
// left may not even have been entered by a lagging one.  An ID left at a
// member's generation g is therefore retired once every member has applied
// generation g — the low-water mark has passed it — and no table holds it:
// a lagging member has by then entered the ID and left it again, and the
// same strategy can come back only as a fresh mutant.  A run of one member
// retires an ID as soon as it leaves it.
//
// When the store is shared across runs (ensemble replicates), the IDs a
// run's initial table interns are pinned instead (intern.Registry.Pin):
// another run may start from the same table and must find the pairs among
// them as it would have.  Such a pair goes cold once the run leaves one
// of its endpoints, exactly as below memory retireFrom, and comes back
// when a run takes the ID up again; a pair of a pinned ID with an
// unpinned one stays hot until the unpinned one is retired.
type runClock struct {
	st  *pairStore
	pin bool
	// gens[m] is the number of generations member m has applied, or
	// math.MaxInt64 once it has released its table.
	gens   []atomic.Int64
	joined atomic.Int32

	mu      sync.Mutex
	pending []leftID     // IDs a member left while other members may lag; guarded by mu
	due     atomic.Int64 // the smallest generation in pending, math.MaxInt64 if none
}

// leftID is an ID no table held when a member left it at generation gen.
type leftID struct {
	id  uint32
	gen int64
}

func newRunClock(st *pairStore, members int, pin bool) *runClock {
	r := &runClock{st: st, pin: pin, gens: make([]atomic.Int64, members)}
	r.due.Store(math.MaxInt64)
	return r
}

// join returns the next member index of the run.
func (r *runClock) join() (int, error) {
	m := int(r.joined.Add(1)) - 1
	if m >= len(r.gens) {
		return 0, fmt.Errorf("fitness: a run of %d evaluators got another", len(r.gens))
	}
	return m, nil
}

// mark returns the run's low-water mark: the fewest generations any
// member has applied.
func (r *runClock) mark() int64 {
	low := int64(math.MaxInt64)
	for i := range r.gens {
		low = min(low, r.gens[i].Load())
	}
	return low
}

// left records that member m's table no longer holds id.
func (r *runClock) left(m int, id uint32) {
	if !r.st.retires || r.st.reg.Held(id) != 1 {
		return
	}
	if len(r.gens) == 1 {
		r.st.reg.Retire(id)
		return
	}
	g := r.gens[m].Load()
	r.mu.Lock()
	r.pending = append(r.pending, leftID{id, g})
	if g < r.due.Load() {
		r.due.Store(g)
	}
	r.mu.Unlock()
}

// advance counts one more generation applied by member m.
func (r *runClock) advance(m int) {
	r.gens[m].Add(1)
	if r.due.Load() < r.mark() {
		r.sweep()
	}
}

// release marks member m finished: it holds nothing and never lags.
func (r *runClock) release(m int) {
	r.gens[m].Store(math.MaxInt64)
	if r.due.Load() < r.mark() {
		r.sweep()
	}
}

// sweep retires every pending ID the low-water mark has passed.
func (r *runClock) sweep() {
	r.mu.Lock()
	defer r.mu.Unlock()
	mark, due := r.mark(), int64(math.MaxInt64)
	kept := r.pending[:0]
	for _, p := range r.pending {
		if p.gen < mark {
			r.st.reg.Retire(p.id)
			continue
		}
		kept = append(kept, p)
		due = min(due, p.gen)
	}
	r.pending = kept
	r.due.Store(due)
}
