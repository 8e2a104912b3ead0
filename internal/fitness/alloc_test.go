package fitness

import (
	"sync"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestPlayIDHitZeroAllocs pins the cache-hit path to zero heap allocations:
// the whole point of interning is that steady-state evaluation is integer
// arithmetic on ID pairs.
func TestPlayIDHitZeroAllocs(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	ida, err := cache.Interner().Intern(strategy.TFT(1))
	if err != nil {
		t.Fatal(err)
	}
	idb, err := cache.Interner().Intern(strategy.AllD(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cache.PlayID(ida, idb); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := cache.PlayID(ida, idb); err != nil {
			t.Fatal(err)
		}
		if _, err := cache.PlayID(idb, ida); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("cache-hit path allocates %v objects/op, want 0", n)
	}
}

// TestPairCacheShardedConcurrentHammer drives the sharded store from many
// goroutines mixing PlayID and one-lane PlayIDBatch hits and misses; run with
// -race in CI it doubles as the data-race gate for the lock-free-ish hit
// path and the atomic counters.
func TestPairCacheShardedConcurrentHammer(t *testing.T) {
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds: 20, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(42)
	table := make([]strategy.Strategy, 48)
	ids := make([]uint32, len(table))
	for i := range table {
		table[i] = strategy.RandomPure(2, src)
		id, err := cache.Interner().Intern(table[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}

	const workers = 16
	var wg sync.WaitGroup
	results := make([]map[uint64]game.Result, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen := make(map[uint64]game.Result)
			out := make([]game.Result, 1)
			// Walk the pair space in a worker-specific order so shards see
			// overlapping misses and hits concurrently.
			for step := 0; step < 3*len(table)*len(table); step++ {
				i := (step*7 + w*13) % len(table)
				j := (step*11 + w*5) % len(table)
				var res game.Result
				var err error
				if step%4 == 0 {
					err = cache.PlayIDBatch(ids[i], ids[j:j+1], out)
					res = out[0]
				} else {
					res, err = cache.PlayID(ids[i], ids[j])
				}
				if err != nil {
					t.Error(err)
					return
				}
				key := uint64(ids[i])<<32 | uint64(ids[j])
				if prev, ok := seen[key]; ok && prev != res {
					t.Errorf("worker %d saw two results for pair (%d,%d)", w, i, j)
					return
				}
				seen[key] = res
			}
			results[w] = seen
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for key, res := range results[w] {
			if base, ok := results[0][key]; ok && base != res {
				t.Fatalf("workers 0 and %d disagree on pair key %#x", w, key)
			}
		}
	}
	// Every distinct unordered pair was played exactly once.
	if plays, max := cache.Misses(), int64(len(table)*(len(table)+1)/2); plays > max {
		t.Fatalf("cache played %d games for %d distinct unordered pairs", plays, max)
	}
	if cache.Hits() == 0 {
		t.Fatal("hammer saw no hits")
	}
}

// testCacheSmallShards returns a cache whose shard budget is tiny so
// eviction triggers quickly.
func testCacheSmallShards(t *testing.T, maxPerShard int) *PairCache {
	t.Helper()
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds: 20, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	cache.store.maxPerShard = maxPerShard
	return cache
}

// TestBoundedEvictionKeepsMirrorInvariant fills the cache far past a tiny
// shard budget and checks that (a) eviction drops a bounded fraction rather
// than the whole store and (b) for every surviving ordered pair the
// mirrored pair survived with it, carrying the swapped result.
func TestBoundedEvictionKeepsMirrorInvariant(t *testing.T) {
	cache := testCacheSmallShards(t, 8)
	src := rng.New(7)
	ids := make([]uint32, 48)
	for i := range ids {
		id, err := cache.Interner().Intern(strategy.RandomPure(2, src))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, a := range ids {
		for _, b := range ids {
			if _, err := cache.PlayID(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cache.Evicted() == 0 {
		t.Fatal("tiny shard budget never triggered eviction")
	}
	if cache.storedPairs() == 0 {
		t.Fatal("eviction emptied the cache; it must drop a bounded fraction only")
	}
	// Mirror invariant: every surviving pair answers both orientations,
	// the reversed one with the swapped result.  Scan every shard's table
	// under its lock.
	for si := range cache.store.shards {
		sh := &cache.store.shards[si]
		sh.mu.Lock()
		tab := sh.table.Load()
		for i := range tab.slots {
			tag := tab.slots[i].tag.Load()
			if tag == 0 {
				continue
			}
			a, b := uint32((tag-1)>>32), uint32(tag-1)
			var res, mres game.Result
			ok := cache.lookup(a, b, &res)
			mok := cache.lookup(b, a, &mres)
			if !ok || !mok {
				sh.mu.Unlock()
				t.Fatalf("shard %d: pair (%d,%d) survived eviction without its mirror", si, a, b)
			}
			if mres != swap(res) {
				sh.mu.Unlock()
				t.Fatalf("shard %d: mirror of (%d,%d) carries %+v, want %+v", si, a, b, mres, swap(res))
			}
		}
		sh.mu.Unlock()
	}
	// Evicted pairs are replayed on demand with identical results.
	res, err := cache.PlayID(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.PlayID(ids[0], ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if res != again {
		t.Fatal("replay after eviction changed the result")
	}
}
