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
// focal strategies, so the cache is one dense row per focal interned ID:
// entry opp of a row holds the focal strategy's payoff against strategy
// opp.  Writes for any other first strategy could never be read and are
// dropped.
//
// Rows are generation-stamped.  Entry opp is cached when its stamp equals
// the event's epoch, and queued — its game collected into the event's
// batch, result at index queue[opp] — when the stamp is epoch+1.  Advancing
// the epoch by two per event invalidates every row in O(1); stamps are
// cleared only when the uint32 epoch runs out.
//
// The event's miss list, per-miss sources and results live here too, so
// the steady-state noisy path allocates nothing.
//
// The rows are dense over every ID the registry has issued, so they still
// grow by about 32 bytes per ID even though the model retires vacated IDs
// from memory fitness.RetireFrom up (retired IDs are never reissued).
type pairRows struct {
	reg    *intern.Registry // sizes the rows: IDs are dense below reg.Len()
	epoch  uint32
	focal  [2]uint32 // the event's focal IDs; equal IDs share row 0
	stamp  [2][]uint32
	payoff [2][]float64
	queue  [2][]int32

	ids       [2][]uint32 // each focal SSet's neighbour IDs off the complete graph
	misses    int         // games queued so far this event
	noisy     bool        // the run's games draw randomness: each queued game takes a source
	missFocal []game.Player
	missOpps  []game.Player
	srcs      []rng.Source
	srcPtrs   []*rng.Source
	results   []game.Result
}

// begin starts a pairwise-comparison event between focal IDs a and b.
func (p *pairRows) begin(a, b uint32) {
	if p.epoch >= math.MaxUint32-2 {
		// The next epoch (or its queued mark) would wrap into stamps written
		// 2³¹ events ago.
		for r := range p.stamp {
			clear(p.stamp[r])
		}
		p.epoch = 0
	}
	p.epoch += 2
	p.focal = [2]uint32{a, b}
	p.misses = 0
	// New IDs appear with every adoption and mutation; grow with headroom.
	// Fresh rows need no copy: every old stamp is below the new epoch.
	if n := p.reg.Len(); len(p.stamp[0]) < n {
		n = max(n, 2*len(p.stamp[0]), 64)
		for r := range p.stamp {
			p.stamp[r] = make([]uint32, n)
			p.payoff[r] = make([]float64, n)
			p.queue[r] = make([]int32, n)
		}
	}
}

// row returns the row of focal ID id in the current event, or -1 when id is
// neither focal strategy.
func (p *pairRows) row(id uint32) int {
	switch id {
	case p.focal[0]:
		return 0
	case p.focal[1]:
		return 1
	}
	return -1
}

// reserve sizes the event's buffers for focal SSets of degrees degA and
// degB.  It runs before any miss is queued, so the source array is never
// reallocated while srcPtrs points into it.
func (p *pairRows) reserve(degA, degB int) {
	for side, deg := range [2]int{degA, degB} {
		if len(p.ids[side]) < deg {
			p.ids[side] = make([]uint32, deg)
		}
	}
	if n := degA + degB; len(p.srcs) < n {
		p.missFocal = make([]game.Player, n)
		p.missOpps = make([]game.Player, n)
		p.srcs = make([]rng.Source, n)
		p.srcPtrs = make([]*rng.Source, n)
		p.results = make([]game.Result, n)
	}
}
