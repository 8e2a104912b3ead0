// Package intern maps strategies to dense uint32 identifiers.
//
// The evaluation hot path of both engines asks the same question millions of
// times per run: "have these two strategies met before?"  Answering it with
// the strategy codec means two heap allocations and a string-map probe per
// lookup (encode both sides, hash the byte strings), which profiling shows
// dominates the pair-cache hit path once the game kernel itself is fast.
// A Registry answers it once per *distinct* strategy instead: the canonical
// codec encoding is interned into a dense uint32 ID at the moments the
// population actually changes (table construction, adoption, mutation —
// O(events), not O(games)), and every subsequent lookup is integer
// arithmetic on a pair of IDs.  Two strategies with identical move tables
// share one ID regardless of which Strategy values hold them, exactly as
// the codec-keyed caches behaved before interning existed.
//
// A Registry is safe for concurrent use; the ID-only accessors take a read
// lock and never allocate, so worker goroutines can resolve IDs without
// serialising on the writer path.
//
// IDs are stable for the registry's lifetime, which means the registry
// itself only grows: one canonical clone plus one encoded key per distinct
// strategy ever seen (about a kilobyte each at memory-six).  The pair
// cache bounds its result store independently; a run whose mutation stream
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

// Registry assigns dense uint32 IDs to strategies by canonical encoding.
// IDs are allocated in interning order starting at 0 and are stable for the
// lifetime of the registry; they are meaningful only within the registry
// that issued them.
type Registry struct {
	mu         sync.RWMutex
	ids        map[string]uint32
	strategies []strategy.Strategy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]uint32)}
}

// Intern returns the dense ID of s, assigning a fresh one if its canonical
// encoding has never been seen.  Strategies with equal move tables receive
// equal IDs.  It returns an error for strategy implementations the codec
// cannot encode; callers are expected to fall back to their un-interned
// paths in that case.
func (r *Registry) Intern(s strategy.Strategy) (uint32, error) {
	id, _, err := r.intern(s)
	return id, err
}

// intern is Intern that also returns the canonical instance behind the ID.
func (r *Registry) intern(s strategy.Strategy) (uint32, strategy.Strategy, error) {
	if s == nil {
		return 0, nil, fmt.Errorf("intern: nil strategy")
	}
	buf, err := strategy.Encode(s)
	if err != nil {
		return 0, nil, fmt.Errorf("intern: %w", err)
	}
	// Probe with r.ids[string(buf)], which the compiler does without
	// copying buf; the key string is built only on insert.
	r.mu.RLock()
	id, ok := r.ids[string(buf)]
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
	if id, ok := r.ids[string(buf)]; ok {
		return id, r.strategies[id], nil
	}
	if len(r.strategies) >= math.MaxUint32 {
		return 0, nil, fmt.Errorf("intern: registry full (%d strategies)", len(r.strategies))
	}
	id = uint32(len(r.strategies))
	r.ids[string(buf)] = id
	// Clone so a caller later mutating its Strategy value in place cannot
	// corrupt the canonical instance the ID resolves to.
	canon = s.Clone()
	r.strategies = append(r.strategies, canon)
	return id, canon, nil
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
