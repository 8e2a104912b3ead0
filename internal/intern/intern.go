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
// A Registry is safe for concurrent use; the ID-only accessors take at
// most a read lock and never allocate, so worker goroutines can resolve
// IDs without serialising on the writer path.
//
// An ID is issued, held, retired, and never reused.  A Table holds the
// IDs of the strategies its SSets hold (see Registry.Hold), and a caller
// that knows nothing will look an ID up again may retire it once no table
// holds it (Registry.Retire): the registry drops its canonical clone and
// hash entry, and the same strategy interned afterwards gets a fresh ID.
// Per-ID state lives in pages of pageLen IDs (see Pages), freed once
// every ID in them is retired, so a registry whose dead IDs are retired
// takes memory for the strategies in use, not for every strategy a run
// has drawn.  The fitness package retires an ID at memory three and up
// once no table of the run has held it since the run's low-water mark;
// an ID can be pinned against retirement (Registry.Pin).
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
	"sync/atomic"

	"evogame/internal/strategy"
)

// pageLen is the number of IDs in one page of per-ID state.
const pageLen = 256

// regPage is the registry's state for pageLen consecutive IDs.
type regPage struct {
	strategies [pageLen]strategy.Strategy // canonical clones; nil once retired
	// held is 0 for an ID no table has held, one more than the number of
	// tables holding it otherwise (1: none), and retired once retired.
	held    [pageLen]atomic.Int32
	pinned  [pageLen]atomic.Bool // never to be retired
	retired int                  // IDs of the page retired; guarded by the registry's mu
}

// retired is the held value of a retired ID.
const retired = -1

// Registry assigns dense uint32 IDs to strategies by codec identity.  IDs
// are allocated in interning order starting at 0 and are never reused;
// they are meaningful only within the registry that issued them.
type Registry struct {
	mu sync.RWMutex
	// byHash maps a strategy's encoding hash to the first live ID issued
	// under it; collided lists, in issue order, any later live IDs under
	// the same hash (nil while no two strategies have collided).
	byHash   map[uint64]uint32
	collided map[uint64][]uint32
	// dir holds one page per pageLen IDs issued, nil once every ID of the
	// page is retired.  It is replaced, never modified, so that Held reads
	// it without a lock; it changes only under mu.
	dir  atomic.Pointer[[]*regPage]
	next uint32 // IDs issued; guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{byHash: make(map[uint64]uint32)}
	r.dir.Store(new([]*regPage))
	return r
}

// page returns the page holding id, or nil when every ID of it is retired
// or it was never made.
func (r *Registry) page(id uint32) *regPage {
	d := *r.dir.Load()
	if p := int(id / pageLen); p < len(d) {
		return d[p]
	}
	return nil
}

// pageFreed reports whether every ID of page p has been issued and
// retired.
func (r *Registry) pageFreed(p int) bool {
	d := *r.dir.Load()
	return p < len(d) && d[p] == nil
}

// Intern returns the dense ID of s, assigning a fresh one if no live
// strategy with the same encoding has been interned.  Strategies with equal
// move tables receive equal IDs while the ID is live.  It returns an error
// for strategy implementations the codec cannot encode; callers are
// expected to fall back to their un-interned paths in that case.
func (r *Registry) Intern(s strategy.Strategy) (uint32, error) {
	id, _, err := r.intern(s, false)
	return id, err
}

// intern is Intern that also returns the canonical instance behind the ID
// and, when hold is set, holds the ID for the caller (see Hold) before any
// Retire can run.
func (r *Registry) intern(s strategy.Strategy, hold bool) (uint32, strategy.Strategy, error) {
	if s == nil {
		return 0, nil, fmt.Errorf("intern: nil strategy")
	}
	h, err := strategy.EncodingHash(s)
	if err != nil {
		return 0, nil, fmt.Errorf("intern: %w", err)
	}
	r.mu.RLock()
	id, canon, ok := r.find(h, s)
	if ok && hold {
		r.Hold(id)
	}
	r.mu.RUnlock()
	if ok {
		return id, canon, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, canon, ok := r.find(h, s); ok {
		if hold {
			r.Hold(id)
		}
		return id, canon, nil
	}
	if r.next >= math.MaxUint32 {
		return 0, nil, fmt.Errorf("intern: registry full (%d strategies)", r.next)
	}
	id = r.next
	r.next++
	if _, taken := r.byHash[h]; taken {
		if r.collided == nil {
			r.collided = make(map[uint64][]uint32)
		}
		r.collided[h] = append(r.collided[h], id)
	} else {
		r.byHash[h] = id
	}
	if id%pageLen == 0 {
		d := append(append([]*regPage(nil), *r.dir.Load()...), new(regPage))
		r.dir.Store(&d)
	}
	// Clone so a caller later mutating its Strategy value in place cannot
	// corrupt the canonical instance the ID resolves to.
	canon = s.Clone()
	pg := r.page(id)
	pg.strategies[id%pageLen] = canon
	if hold {
		pg.held[id%pageLen].Store(2)
	}
	return id, canon, nil
}

// find returns the live ID of the interned strategy encoding like s, whose
// encoding hash is h, and its canonical instance.  Called with r.mu held.
func (r *Registry) find(h uint64, s strategy.Strategy) (uint32, strategy.Strategy, bool) {
	id, ok := r.byHash[h]
	if !ok {
		return 0, nil, false
	}
	if c := r.page(id).strategies[id%pageLen]; strategy.SameEncoding(c, s) {
		return id, c, true
	}
	for _, id := range r.collided[h] {
		if c := r.page(id).strategies[id%pageLen]; strategy.SameEncoding(c, s) {
			return id, c, true
		}
	}
	return 0, nil, false
}

// Strategy returns the canonical strategy instance behind a live ID issued
// by this registry.  The returned value must be treated as immutable.
func (r *Registry) Strategy(id uint32) (strategy.Strategy, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if id >= r.next {
		return nil, fmt.Errorf("intern: unknown strategy id %d (registry holds %d)", id, r.next)
	}
	if p := r.page(id); p != nil && p.strategies[id%pageLen] != nil {
		return p.strategies[id%pageLen], nil
	}
	return nil, fmt.Errorf("intern: strategy id %d is retired", id)
}

// Len returns the number of IDs issued so far, retired ones included.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return int(r.next)
}

// Hold counts one more table holding id, a live ID.  A table holds each ID
// its SSets hold once, from interning it (see Table) until none of its
// SSets holds it any more; Drop releases the hold.
func (r *Registry) Hold(id uint32) {
	h := &r.page(id).held[id%pageLen]
	for {
		v := h.Load()
		if v == retired {
			panic(fmt.Sprintf("intern: holding retired strategy id %d", id))
		}
		nv := v + 1
		if v == 0 {
			nv = 2
		}
		if h.CompareAndSwap(v, nv) {
			return
		}
	}
}

// Drop counts one table fewer holding id, which the table holds.
func (r *Registry) Drop(id uint32) {
	if r.page(id).held[id%pageLen].Add(-1) < 1 {
		panic(fmt.Sprintf("intern: dropping strategy id %d, which no table holds", id))
	}
}

// Held returns id's held count as stored: 0 if no table ever held it, one
// more than the number of tables holding it otherwise, and a negative
// value once it is retired.  It takes no lock.
func (r *Registry) Held(id uint32) int32 {
	if p := r.page(id); p != nil {
		return p.held[id%pageLen].Load()
	}
	if int(id/pageLen) < len(*r.dir.Load()) {
		return retired
	}
	return 0
}

// Pin keeps id, a live ID, from ever being retired.
func (r *Registry) Pin(id uint32) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.page(id).pinned[id%pageLen].Store(true)
}

// Pinned reports whether id is pinned.  It takes no lock.
func (r *Registry) Pinned(id uint32) bool {
	p := r.page(id)
	return p != nil && p.pinned[id%pageLen].Load()
}

// Retire drops id's canonical clone and hash entry if some table has held
// id, none holds it now and it is not pinned, and reports whether it did.  The ID is never
// issued again: the same strategy interned later gets a fresh ID.  A page
// whose IDs are all retired is freed.  The caller must know that nothing
// will look id up again.
func (r *Registry) Retire(id uint32) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.page(id)
	if p == nil || p.pinned[id%pageLen].Load() || !p.held[id%pageLen].CompareAndSwap(1, retired) {
		return false
	}
	s := p.strategies[id%pageLen]
	p.strategies[id%pageLen] = nil
	// The hash is that of a strategy interned before, so it cannot fail.
	h, _ := strategy.EncodingHash(s)
	more := r.collided[h]
	switch {
	case r.byHash[h] != id:
		for k, c := range more {
			if c == id {
				more = append(more[:k], more[k+1:]...)
				break
			}
		}
	case len(more) > 0:
		r.byHash[h], more = more[0], more[1:]
	default:
		delete(r.byHash, h)
	}
	if len(more) > 0 {
		r.collided[h] = more
	} else if r.collided != nil {
		delete(r.collided, h)
	}
	if p.retired++; p.retired == pageLen {
		d := append([]*regPage(nil), *r.dir.Load()...)
		d[id/pageLen] = nil
		r.dir.Store(&d)
	}
	return true
}
