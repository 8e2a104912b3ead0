package fitness

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// refStore is an independent reference for the pair store's accounting:
// one map per shard keyed by ordered pair, holding both orientations of
// every played pair, and evicting by walking the ordered keys in ascending
// order and dropping each victim together with its mirror.  It shares the
// cache's registry, shard mapping and budget.
type refStore struct {
	cache       *PairCache
	maxPerShard int
	shards      map[*cacheShard]map[uint64]game.Result

	hits, misses, evicted int64
}

func newRefStore(cache *PairCache) *refStore {
	r := &refStore{cache: cache, maxPerShard: cache.store.maxPerShard, shards: make(map[*cacheShard]map[uint64]game.Result)}
	for i := range cache.store.shards {
		r.shards[&cache.store.shards[i]] = make(map[uint64]game.Result)
	}
	return r
}

// shard returns the reference map of the cache shard holding (a, b).
func (r *refStore) shard(a, b uint32) map[uint64]game.Result {
	sh, _, _, _ := r.cache.store.locate(a, b)
	return r.shards[sh]
}

func orderedKey(a, b uint32) uint64 { return uint64(a)<<32 | uint64(b) }

func reversedKey(k uint64) uint64 { return k<<32 | k>>32 }

func (r *refStore) evict(m map[uint64]game.Result) {
	quota := max(1, len(m)/evictDivisor)
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	removed := 0
	for _, k := range keys {
		if _, ok := m[k]; !ok {
			continue
		}
		delete(m, k)
		removed++
		if mk := reversedKey(k); mk != k {
			if _, ok := m[mk]; ok {
				delete(m, mk)
				removed++
			}
		}
		if removed >= quota {
			break
		}
	}
	r.evicted += int64(removed)
}

func (r *refStore) get(a, b uint32) (game.Result, bool) {
	res, ok := r.shard(a, b)[orderedKey(a, b)]
	return res, ok
}

func (r *refStore) put(t *testing.T, a, b uint32) {
	m := r.shard(a, b)
	if _, ok := m[orderedKey(a, b)]; ok {
		return
	}
	sa, _ := r.cache.Interner().Strategy(a)
	sb, _ := r.cache.Interner().Strategy(b)
	res, err := r.cache.eng.Play(sa, sb, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.misses++
	if len(m) >= r.maxPerShard {
		r.evict(m)
	}
	m[orderedKey(a, b)] = res
	m[orderedKey(b, a)] = swap(res)
}

func (r *refStore) playID(t *testing.T, a, b uint32) {
	if _, ok := r.get(a, b); ok {
		r.hits++
		return
	}
	r.put(t, a, b)
}

// playIDBatch looks every opponent up first, then stores the distinct
// misses in first-encounter order.
func (r *refStore) playIDBatch(t *testing.T, a uint32, bs []uint32) {
	var missed []uint32
	for _, b := range bs {
		if _, ok := r.get(a, b); ok {
			r.hits++
		} else if !slices.Contains(missed, b) {
			missed = append(missed, b)
		}
	}
	for _, b := range missed {
		r.put(t, a, b)
	}
}

func (r *refStore) len() int {
	n := 0
	for _, m := range r.shards {
		n += len(m)
	}
	return n
}

// storedPairs lists every ordered pair the cache's store holds, hot or
// cold, with its result, by scanning the canonical entries.
func storedPairs(c *PairCache) map[uint64]game.Result {
	out := make(map[uint64]game.Result)
	for key, res := range coldPairs(c) {
		out[key] = res
		out[reversedKey(key)] = swap(res)
	}
	for si := range c.store.shards {
		sh := &c.store.shards[si]
		sh.mu.Lock()
		tab := sh.table.Load()
		for i := range tab.slots {
			tag := tab.slots[i].tag.Load()
			if tag == 0 {
				continue
			}
			res := tab.slots[i].res
			out[tag-1] = res
			out[reversedKey(tag-1)] = swap(res)
		}
		sh.mu.Unlock()
	}
	return out
}

// TestEvictionMatchesOrderedKeyStore drives the canonical store and the
// ordered-key reference through one seeded sequence of PlayID and
// PlayIDBatch calls under tiny shard budgets, so eviction fires
// constantly, and requires identical accounting and survivors after every
// call.
func TestEvictionMatchesOrderedKeyStore(t *testing.T) {
	for _, budget := range []int{5, 6, 12, 19} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) { testEvictionMatches(t, budget) })
	}
}

func testEvictionMatches(t *testing.T, budget int) {
	cache := testCacheSmallShards(t, budget)
	ref := newRefStore(cache)
	src := rng.New(2013)
	ids := make([]uint32, 40)
	for i := range ids {
		id, err := cache.Interner().Intern(strategy.RandomPure(2, src))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	out := make([]game.Result, game.BatchLanes)
	for step := 0; step < 400; step++ {
		a := ids[src.Intn(len(ids))]
		if step%3 == 0 {
			b := a // a self pair now and then
			if step%2 == 0 {
				b = ids[src.Intn(len(ids))]
			}
			if _, err := cache.PlayID(a, b); err != nil {
				t.Fatal(err)
			}
			ref.playID(t, a, b)
		} else {
			bs := make([]uint32, 1+src.Intn(game.BatchLanes))
			for k := range bs {
				bs[k] = ids[src.Intn(len(ids))]
			}
			if err := cache.PlayIDBatch(a, bs, out[:len(bs)]); err != nil {
				t.Fatal(err)
			}
			ref.playIDBatch(t, a, bs)
		}
		if cache.Hits() != ref.hits || cache.Misses() != ref.misses || cache.Evicted() != ref.evicted ||
			cache.storedPairs() != ref.len() {
			t.Fatalf("step %d: hits/misses/evicted/len = %d/%d/%d/%d, reference %d/%d/%d/%d", step,
				cache.Hits(), cache.Misses(), cache.Evicted(), cache.storedPairs(),
				ref.hits, ref.misses, ref.evicted, ref.len())
		}
		got := storedPairs(cache)
		if len(got) != ref.len() {
			t.Fatalf("step %d: tables hold %d ordered pairs, reference %d", step, len(got), ref.len())
		}
		for _, m := range ref.shards {
			for k, want := range m {
				if res, ok := got[k]; !ok || res != want {
					t.Fatalf("step %d: pair %#x stored as %+v (present %v), reference %+v", step, k, res, ok, want)
				}
			}
		}
	}
	if ref.evicted == 0 {
		t.Fatal("tiny shard budget never triggered eviction")
	}
}

// TestConcurrentReadsDuringRebuilds runs eight views over one store whose
// tiny budget keeps shards growing and evicting, so lock-free readers
// constantly race table rebuilds.  Every result must equal the engine's
// own game for that ordered pair.  Run with -race, it is also the data-race
// gate for the publish-before-read protocol.
func TestConcurrentReadsDuringRebuilds(t *testing.T) {
	cfg := game.EngineConfig{Rounds: 20, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup}
	base := testCacheSmallShards(t, 24)
	src := rng.New(77)
	ids := make([]uint32, 96)
	table := make([]strategy.Strategy, len(ids))
	for i := range ids {
		table[i] = strategy.RandomPure(2, src)
		id, err := base.Interner().Intern(table[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	want := make([][]game.Result, len(ids))
	for i := range want {
		want[i] = make([]game.Result, len(ids))
		for j := range want[i] {
			res, err := base.eng.Play(table[i], table[j], nil)
			if err != nil {
				t.Fatal(err)
			}
			want[i][j] = res
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	views := make([]*PairCache, workers)
	for w := range views {
		view, err := base.NewView(testEngine(t, cfg))
		if err != nil {
			t.Fatal(err)
		}
		views[w] = view
		wg.Add(1)
		go func(w int, view *PairCache) {
			defer wg.Done()
			wsrc := rng.New(uint64(100 + w))
			js := make([]int, game.BatchLanes)
			bs := make([]uint32, game.BatchLanes)
			out := make([]game.Result, game.BatchLanes)
			for step := 0; step < 300; step++ {
				i := wsrc.Intn(len(ids))
				if step%2 == 0 {
					j := wsrc.Intn(len(ids))
					res, err := view.PlayID(ids[i], ids[j])
					if err != nil {
						t.Error(err)
						return
					}
					if res != want[i][j] {
						t.Errorf("worker %d: PlayID(%d,%d) = %+v, want %+v", w, i, j, res, want[i][j])
						return
					}
					continue
				}
				n := 1 + wsrc.Intn(game.BatchLanes)
				for k := 0; k < n; k++ {
					js[k] = wsrc.Intn(len(ids))
					bs[k] = ids[js[k]]
				}
				if err := view.PlayIDBatch(ids[i], bs[:n], out[:n]); err != nil {
					t.Error(err)
					return
				}
				for k := 0; k < n; k++ {
					if out[k] != want[i][js[k]] {
						t.Errorf("worker %d: PlayIDBatch(%d) lane %d = %+v, want %+v", w, i, k, out[k], want[i][js[k]])
						return
					}
				}
			}
		}(w, view)
	}
	wg.Wait()
	var evicted int64
	for _, v := range views {
		evicted += v.Evicted()
	}
	if evicted == 0 || base.storedPairs() == 0 {
		t.Fatalf("store never evicted (%d) or ended empty (%d ordered pairs)", evicted, base.storedPairs())
	}
}

// storedPairs returns the number of memoized ordered pairs in the store
// under c (shared across views): two per stored pair of distinct
// strategies, one per self pair.
func (c *PairCache) storedPairs() int {
	total := 0
	for i := range c.store.shards {
		sh := &c.store.shards[i]
		sh.mu.Lock()
		total += sh.n
		sh.mu.Unlock()
	}
	return total
}
