package fitness

import (
	"fmt"
	"sync"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// coldPairs returns every cold pair of the store under c, by canonical
// key, with its result restored.
func coldPairs(c *PairCache) map[uint64]game.Result {
	out := make(map[uint64]game.Result)
	for si := range c.store.shards {
		sh := &c.store.shards[si]
		sh.mu.Lock()
		for i := 0; i < sh.cold.n; i++ {
			p := sh.cold.at(i)
			var res game.Result
			p.restore(&res, c.store.rounds, false)
			out[p.key] = res
		}
		sh.mu.Unlock()
	}
	return out
}

// checkLiveness fails unless every cold pair has an endpoint no table
// holds, both endpoints entered, every cold record is found through its
// shard's index once one is built, and every ID's cold reference count
// equals the cold pairs naming it.  It needs a quiescent store.
func checkLiveness(t *testing.T, c *PairCache, step int) {
	t.Helper()
	for si := range c.store.shards {
		l := &c.store.shards[si].cold
		for i := 0; l.index != nil && i < l.n; i++ {
			if pos, ok := l.find(l.at(i).key); !ok || pos != i {
				t.Fatalf("step %d: shard %d's index finds cold record %d at %d (%v)", step, si, i, pos, ok)
			}
		}
	}
	refs := make(map[uint32]int32)
	for key := range coldPairs(c) {
		a, b := uint32(key>>32), uint32(key)
		if ha, hb := c.store.reg.Held(a), c.store.reg.Held(b); ha == 0 || hb == 0 || ha > 1 && hb > 1 {
			t.Fatalf("step %d: pair (%d, %d) is cold with held counts %d and %d", step, a, b, ha-1, hb-1)
		}
		refs[a]++
		if b != a {
			refs[b]++
		}
	}
	for id := uint32(0); int(id) < c.Interner().Len(); id++ {
		got := c.store.live.coldRefs(id)
		if got != refs[id] {
			t.Fatalf("step %d: ID %d counts %d cold references, the cold log holds %d", step, id, got, refs[id])
		}
	}
}

// enter stands in for a table taking up ids, partners being every ID it
// holds, ids among them: it holds each, then brings their cold pairs back,
// as an intern.Table and its Evaluator do.
func (st *pairStore) enter(ids, partners []uint32) {
	for _, id := range ids {
		st.reg.Hold(id)
	}
	st.bringBack(ids, partners)
}

// leave stands in for a table dropping id, which it holds.
func (st *pairStore) leave(id uint32) { st.reg.Drop(id) }

// FuzzStoreLiveness drives a tiny-budget store through random sequences of
// enter, leave, re-enter, PlayID and PlayIDBatch that look up only live
// pairs, and checks them step by step against the reference store, which
// has no liveness: identical results, hits, misses, evictions and stored
// pairs, hot and cold together.  No pair whose endpoints are both held may
// ever be cold.
func FuzzStoreLiveness(f *testing.F) {
	f.Add(uint8(20), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(40), []byte("enter leave re-enter and look up the live pairs of a tiny store"))
	f.Add(uint8(0), []byte{3, 3, 3, 3, 1, 1, 1, 1, 0, 0, 0, 0, 2, 2, 2, 2, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, budget uint8, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		testStoreLiveness(t, 12+int(budget)%64, ops)
	})
}

// TestStoreLivenessSeeded is FuzzStoreLiveness over long seeded sequences,
// so every test run compacts, demotes, promotes and evicts.  -short runs
// shorter sequences.
func TestStoreLivenessSeeded(t *testing.T) {
	length := 3000
	if testing.Short() {
		length = 1000
	}
	for _, budget := range []int{12, 24, 48, 75} {
		t.Run(fmt.Sprint(budget), func(t *testing.T) {
			src := rng.New(uint64(budget))
			ops := make([]byte, length)
			for i := range ops {
				ops[i] = byte(src.Intn(256))
			}
			cold := testStoreLiveness(t, budget, ops)
			if cold == 0 {
				t.Fatal("no pair ever went cold")
			}
		})
	}
}

// testStoreLiveness runs one sequence and returns the most cold pairs the
// store held at once.
func testStoreLiveness(t *testing.T, budget int, ops []byte) (mostCold int) {
	const numIDs = 64
	cache := testCacheSmallShards(t, budget)
	ref := newRefStore(cache)
	src := rng.New(3)
	ids := make([]uint32, numIDs)
	strats := make([]strategy.Strategy, numIDs)
	for i := range ids {
		strats[i] = strategy.RandomPure(2, src)
		id, err := cache.Interner().Intern(strats[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// want[{a, b}] is the engine's own game of the ordered ID pair (a, b).
	want := make(map[[2]uint32]game.Result)
	for i, a := range ids {
		for j, b := range ids {
			res, err := cache.eng.Play(strats[i], strats[j], nil)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]uint32{a, b}] = res
		}
	}
	// held[i] is how many tables hold ids[i]; entered[i] whether any ever
	// did.  An ID never entered counts as live.  The tables' partners are
	// every held ID.
	held := make([]int, numIDs)
	entered := make([]bool, numIDs)
	partners := func() []uint32 {
		var out []uint32
		for i, id := range ids {
			if held[i] > 0 {
				out = append(out, id)
			}
		}
		return out
	}
	live := func() []uint32 {
		var out []uint32
		for i, id := range ids {
			if held[i] > 0 || !entered[i] {
				out = append(out, id)
			}
		}
		return out
	}
	out := make([]game.Result, game.BatchLanes)
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step], int(ops[step+1])
		i := arg % numIDs
		switch op % 8 {
		case 0: // a table takes up ids[i]
			held[i]++
			entered[i] = true
			cache.store.enter(ids[i:i+1], partners())
		case 1: // a table drops an ID it holds
			for k := 0; k < numIDs && held[i] == 0; k++ {
				i = (i + 1) % numIDs
			}
			if held[i] > 0 {
				cache.store.leave(ids[i])
				held[i]--
			}
		case 2: // a table takes up several IDs at once
			var batch []uint32
			for _, k := range []int{i, (i + 7) % numIDs, (i + 13) % numIDs} {
				held[k]++
				entered[k] = true
				batch = append(batch, ids[k])
			}
			cache.store.enter(batch, partners())
		case 3, 4:
			l := live()
			if len(l) == 0 {
				continue
			}
			a, b := l[arg%len(l)], l[(arg*31+int(op))%len(l)]
			res, err := cache.PlayID(a, b)
			if err != nil {
				t.Fatal(err)
			}
			ref.playID(t, a, b)
			if w := want[[2]uint32{a, b}]; res != w {
				t.Fatalf("step %d: PlayID(%d, %d) = %+v, engine %+v", step, a, b, res, w)
			}
		default:
			l := live()
			if len(l) == 0 {
				continue
			}
			a := l[arg%len(l)]
			bs := make([]uint32, 1+(arg+int(op))%game.BatchLanes)
			for k := range bs {
				bs[k] = l[(arg+k*int(op|1))%len(l)]
			}
			if err := cache.PlayIDBatch(a, bs, out[:len(bs)]); err != nil {
				t.Fatal(err)
			}
			ref.playIDBatch(t, a, bs)
			for k, b := range bs {
				if w := want[[2]uint32{a, b}]; out[k] != w {
					t.Fatalf("step %d: PlayIDBatch(%d) lane %d vs %d = %+v, engine %+v", step, a, k, b, out[k], w)
				}
			}
		}
		if cache.Hits() != ref.hits || cache.Misses() != ref.misses || cache.Evicted() != ref.evicted || cache.storedPairs() != ref.len() {
			t.Fatalf("step %d: hits/misses/evicted/len = %d/%d/%d/%d, reference %d/%d/%d/%d", step,
				cache.Hits(), cache.Misses(), cache.Evicted(), cache.storedPairs(), ref.hits, ref.misses, ref.evicted, ref.len())
		}
		got := storedPairs(cache)
		if len(got) != ref.len() {
			t.Fatalf("step %d: store holds %d ordered pairs, reference %d", step, len(got), ref.len())
		}
		for _, m := range ref.shards {
			for k, want := range m {
				if res, ok := got[k]; !ok || res != want {
					t.Fatalf("step %d: pair %#x stored as %+v (present %v), reference %+v", step, k, res, ok, want)
				}
			}
		}
		checkLiveness(t, cache, step)
		mostCold = max(mostCold, len(coldPairs(cache)))
	}
	return mostCold
}

// TestSharedStoreLivenessRace runs evaluators over views of one store
// concurrently, each entering, leaving and looking up its own overlapping
// set of strategies, and requires every view's fitness values to equal a
// run of the same sequence over a private store.  The store never evicts,
// so each distinct pair is played once whichever view meets it first: the
// views' miss total must equal that of the same sequences run one after
// another over one store.  A pair left cold while both its endpoints are
// live would be played again and raise it.  The test is not skipped under
// -short, so the race detector sees it.
func TestSharedStoreLivenessRace(t *testing.T) {
	const views, n, steps = 4, 24, 150
	eng := testCacheSmallShards(t, 1).eng
	// A pool small enough that the views' strategies overlap and extinct
	// ones re-enter, and large enough that shards compact.
	pool := make([]strategy.Strategy, 96)
	for i := range pool {
		pool[i] = strategy.RandomPure(2, rng.New(uint64(500+i)))
	}
	spec, err := topology.Parse("wellmixed")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v int, store *PairCache) ([]float64, int64, error) {
		src := rng.New(uint64(v))
		table := make([]strategy.Strategy, n)
		for i := range table {
			table[i] = pool[src.Intn(len(pool))]
		}
		mode := EvalCached
		if v%2 == 1 {
			mode = EvalIncremental
		}
		ev, err := NewEvaluator(eng, g, table, 0, n, mode, store)
		if err != nil {
			return nil, 0, err
		}
		defer ev.Release()
		var fit []float64
		for step := 0; step < steps; step++ {
			for _, i := range []int{src.Intn(n), src.Intn(n)} {
				f, err := ev.Fitness(i)
				if err != nil {
					return nil, 0, err
				}
				fit = append(fit, f)
			}
			if step%3 == 0 {
				err = ev.Apply(src.Intn(n), pool[src.Intn(len(pool))])
			} else {
				err = ev.Adopt(src.Intn(n), src.Intn(n))
			}
			if err != nil {
				return nil, 0, err
			}
		}
		return fit, ev.Cache().Misses(), nil
	}
	const noEviction = 1 << 20
	want := make([][]float64, views)
	serial := testCacheSmallShards(t, noEviction)
	var wantMisses int64
	for v := range want {
		fit, _, err := run(v, testCacheSmallShards(t, noEviction))
		if err != nil {
			t.Fatal(err)
		}
		want[v] = fit
		_, misses, err := run(v, serial)
		if err != nil {
			t.Fatal(err)
		}
		wantMisses += misses
	}
	if len(coldPairs(serial)) == 0 {
		t.Fatal("the sequences never moved a pair to the cold log")
	}

	shared := testCacheSmallShards(t, noEviction)
	got := make([][]float64, views)
	misses := make([]int64, views)
	errs := make([]error, views)
	var wg sync.WaitGroup
	for v := 0; v < views; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			got[v], misses[v], errs[v] = run(v, shared)
		}(v)
	}
	wg.Wait()
	var gotMisses int64
	for v := range errs {
		if errs[v] != nil {
			t.Fatal(errs[v])
		}
		if fmt.Sprint(got[v]) != fmt.Sprint(want[v]) {
			t.Fatalf("view %d: fitness over the shared store differs from its private run", v)
		}
		gotMisses += misses[v]
	}
	if gotMisses != wantMisses {
		t.Fatalf("views over the shared store missed %d times, the same sequences in turn %d", gotMisses, wantMisses)
	}
	checkLiveness(t, shared, steps)
}
