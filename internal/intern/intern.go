// Package intern maps strategies to dense uint32 identifiers.
//
// The evaluation hot path of both engines asks the same question millions of
// times per run: "have these two strategies met before?"  Answering it with
// the strategy codec means two heap allocations and a string-map probe per
// lookup (encode both sides, hash the byte strings), which profiling shows
// dominates the pair-cache hit path once the game kernel itself is fast.
// A Registry answers it once per *distinct* strategy instead: each strategy
// is interned into a dense uint32 ID at the moments the population
// actually changes (table construction, adoption, mutation — O(events),
// not O(games)), and every subsequent lookup is integer arithmetic on a
// pair of IDs.  Identity is the codec's: two strategies share an ID
// exactly when strategy.Encode writes identical bytes for them, whichever
// Strategy values hold them.  The registry finds a strategy by a 64-bit
// hash of those words (strategy.EncodingHash) and confirms the hit bit for
// bit (strategy.SameEncoding), so it never builds an encoding.
//
// A Registry is safe for concurrent use; the ID-only accessors take a read
// lock and never allocate, so worker goroutines can resolve IDs without
// serialising on the writer path.
//
// IDs are stable for the registry's lifetime, which means the registry
// itself only grows: one canonical clone per distinct strategy ever seen
// (about 0.6 KB at memory-six) and one hash-map entry.  The pair cache
// bounds its result store independently; a run whose mutation stream
// generates tens of millions of distinct strategies will see the registry
// dominate memory long before that.  That regime is far beyond the runs
// this framework targets, and evicting registry entries would invalidate
// IDs already stored in tables and caches, so the trade-off is documented
// rather than engineered around.
//
// A Table is an engine's one record of which strategy each SSet holds: the
// ID and canonical instance per SSet, the count of SSets per ID and the
// IDs present.  The fitness evaluator reads its IDs and counts, and
// abundance samples its counts.
package intern

import (
	"fmt"
	"math"
	"sync"

	"evogame/internal/strategy"
)

// Registry assigns dense uint32 IDs to strategies by codec identity.  IDs
// are allocated in interning order starting at 0 and are stable for the
// lifetime of the registry; they are meaningful only within the registry
// that issued them.
type Registry struct {
	mu sync.RWMutex
	// byHash maps a strategy's encoding hash to the first ID issued under
	// it; collided lists, in issue order, any later IDs under the same
	// hash (nil while no two strategies have collided).
	byHash     map[uint64]uint32
	collided   map[uint64][]uint32
	strategies []strategy.Strategy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byHash: make(map[uint64]uint32)}
}

// Intern returns the dense ID of s, assigning a fresh one if no strategy
// with the same encoding has been interned.  Strategies with equal move
// tables receive equal IDs.  It returns an error for strategy
// implementations the codec cannot encode; callers are expected to fall
// back to their un-interned paths in that case.
func (r *Registry) Intern(s strategy.Strategy) (uint32, error) {
	id, _, err := r.intern(s)
	return id, err
}

// intern is Intern that also returns the canonical instance behind the ID.
func (r *Registry) intern(s strategy.Strategy) (uint32, strategy.Strategy, error) {
	if s == nil {
		return 0, nil, fmt.Errorf("intern: nil strategy")
	}
	h, err := strategy.EncodingHash(s)
	if err != nil {
		return 0, nil, fmt.Errorf("intern: %w", err)
	}
	r.mu.RLock()
	id, ok := r.find(h, s)
	var canon strategy.Strategy
	if ok {
		canon = r.strategies[id]
	}
	r.mu.RUnlock()
	if ok {
		return id, canon, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.find(h, s); ok {
		return id, r.strategies[id], nil
	}
	if uint64(len(r.strategies)) >= math.MaxUint32 {
		return 0, nil, fmt.Errorf("intern: registry full (%d strategies)", len(r.strategies))
	}
	id = uint32(len(r.strategies))
	if _, taken := r.byHash[h]; taken {
		if r.collided == nil {
			r.collided = make(map[uint64][]uint32)
		}
		r.collided[h] = append(r.collided[h], id)
	} else {
		r.byHash[h] = id
	}
	// Clone so a caller later mutating its Strategy value in place cannot
	// corrupt the canonical instance the ID resolves to.
	canon = s.Clone()
	r.strategies = append(r.strategies, canon)
	return id, canon, nil
}

// find returns the ID of the interned strategy encoding like s, whose
// encoding hash is h.  Called with r.mu held.
func (r *Registry) find(h uint64, s strategy.Strategy) (uint32, bool) {
	id, ok := r.byHash[h]
	if !ok {
		return 0, false
	}
	if strategy.SameEncoding(r.strategies[id], s) {
		return id, true
	}
	for _, id := range r.collided[h] {
		if strategy.SameEncoding(r.strategies[id], s) {
			return id, true
		}
	}
	return 0, false
}

// Strategy returns the canonical strategy instance behind an ID issued by
// this registry.  The returned value must be treated as immutable.
func (r *Registry) Strategy(id uint32) (strategy.Strategy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int64(id) >= int64(len(r.strategies)) {
		return nil, fmt.Errorf("intern: unknown strategy id %d (registry holds %d)", id, len(r.strategies))
	}
	return r.strategies[id], nil
}

// Len returns the number of distinct strategies interned so far.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.strategies)
}
