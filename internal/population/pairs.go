package population

import (
	"math"

	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/rng"
)

// pairRows is the per-event distinct-pair cache of the interned EvalFull
// path (fitnessPair).  A pairwise-comparison event evaluates two focal
// SSets and only ever looks up pairs whose first strategy is one of the two
// focal strategies, so the cache is one dense row per focal strategy:
// entry k of a row holds the focal strategy's payoff against the strategy
// at position k of the table's Present list.  Writes for any other first
// strategy could never be read and are dropped.  The table changes only
// between events, so positions name strategies for a whole event.
//
// Rows are generation-stamped.  Entry k is cached when its stamp equals
// the event's epoch, and queued — its game collected into the event's
// batch, result at index queue[k] — when the stamp is epoch+1.  Advancing
// the epoch by two per event invalidates every row in O(1); stamps are
// cleared only when the uint32 epoch runs out.
//
// The event's miss list, per-miss sources and results live here too, so
// the steady-state noisy path allocates nothing.
//
// Rows are as long as the most strategies present at any event so far,
// grown by doubling and never longer than the population, so they follow
// the live population, not the IDs the registry has issued.
type pairRows struct {
	reg    *intern.Registry // the private registry behind the model's table
	epoch  uint32
	focal  [2]uint32 // the event's focal positions; equal strategies share row 0
	stamp  [2][]uint32
	payoff [2][]float64
	queue  [2][]int32

	pos       [2][]uint32 // each focal SSet's neighbour positions, on the neighbour-scan path
	order     []uint64    // first neighbour<<32 | position of each miss, on the count path
	misses    int         // games queued so far this event
	noisy     bool        // the run's games draw randomness: each queued game takes a source
	missFocal []game.Player
	missOpps  []game.Player
	srcs      []rng.Source
	srcPtrs   []*rng.Source
	results   []game.Result
}

// begin starts a pairwise-comparison event between SSets a and b of t.
func (p *pairRows) begin(t *intern.Table, a, b int) {
	if p.epoch >= math.MaxUint32-2 {
		// The next epoch (or its queued mark) would wrap into stamps written
		// 2³¹ events ago.
		for r := range p.stamp {
			clear(p.stamp[r])
		}
		p.epoch = 0
	}
	p.epoch += 2
	p.focal = [2]uint32{uint32(t.Pos(t.ID(a))), uint32(t.Pos(t.ID(b)))}
	p.misses = 0
	// Strategies appear with adoptions and mutations; grow with headroom.
	// Fresh rows need no copy: every old stamp is below the new epoch.
	if n := len(t.Present()); len(p.stamp[0]) < n {
		n = min(max(n, 2*len(p.stamp[0]), 64), t.Len())
		for r := range p.stamp {
			p.stamp[r] = make([]uint32, n)
			p.payoff[r] = make([]float64, n)
			p.queue[r] = make([]int32, n)
		}
	}
}

// row returns the row of the strategy at position k in the current event,
// or -1 when it is neither focal strategy.
func (p *pairRows) row(k uint32) int {
	switch k {
	case p.focal[0]:
		return 0
	case p.focal[1]:
		return 1
	}
	return -1
}

// reserve sizes the event's miss buffers for at most n misses.  It runs
// before any miss is queued, so the source array is never reallocated
// while srcPtrs points into it.
func (p *pairRows) reserve(n int) {
	if len(p.srcs) < n {
		n = max(n, 2*len(p.srcs))
		p.missFocal = make([]game.Player, n)
		p.missOpps = make([]game.Player, n)
		p.srcs = make([]rng.Source, n)
		p.srcPtrs = make([]*rng.Source, n)
		p.results = make([]game.Result, n)
	}
}
