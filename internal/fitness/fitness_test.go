package fitness

import (
	"sync"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

func newEngine(t testing.TB, noise float64) *game.Engine {
	t.Helper()
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      50,
		MemorySteps: 1,
		Noise:       noise,
		StateMode:   game.StateRolling,
		AccumMode:   game.AccumLookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEvalModeStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		mode EvalMode
		name string
	}{{EvalFull, "full"}, {EvalCached, "cached"}, {EvalIncremental, "incremental"}} {
		if tc.mode.String() != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.mode, tc.mode.String(), tc.name)
		}
		got, err := ParseEvalMode(tc.name)
		if err != nil || got != tc.mode {
			t.Errorf("ParseEvalMode(%q) = %v, %v", tc.name, got, err)
		}
		if !tc.mode.Valid() {
			t.Errorf("%v should be valid", tc.mode)
		}
	}
	if _, err := ParseEvalMode("bogus"); err == nil {
		t.Error("ParseEvalMode accepted an unknown mode")
	}
	if EvalMode(7).Valid() || EvalMode(-1).Valid() {
		t.Error("out-of-range modes should be invalid")
	}
	if EvalMode(7).String() == "" {
		t.Error("unknown mode should still render")
	}
}

func TestPairCacheMemoizesAndMirrors(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	ids := internAll(t, cache, strategy.TFT(1), strategy.AllD(1))
	tft, alld := ids[0], ids[1]

	first, err := cache.PlayID(tft, alld)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 || cache.Hits() != 0 {
		t.Fatalf("after first play: misses=%d hits=%d", cache.Misses(), cache.Hits())
	}
	// Same ordered pair: a hit with the identical result.
	again, err := cache.PlayID(tft, alld)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("cached result differs: %+v vs %+v", again, first)
	}
	// Reversed pair: also a hit, with the mirrored result.
	rev, err := cache.PlayID(alld, tft)
	if err != nil {
		t.Fatal(err)
	}
	if rev.FitnessA != first.FitnessB || rev.FitnessB != first.FitnessA ||
		rev.CooperationsA != first.CooperationsB || rev.Rounds != first.Rounds {
		t.Fatalf("mirrored result wrong: %+v vs %+v", rev, first)
	}
	if cache.Misses() != 1 || cache.Hits() != 2 {
		t.Fatalf("after mirror hit: misses=%d hits=%d", cache.Misses(), cache.Hits())
	}
	if cache.storedPairs() != 2 {
		t.Fatalf("cache holds %d ordered pairs, want 2", cache.storedPairs())
	}
	// A strategy with the same move table but a different value must share
	// the canonical key.
	parsed, err := strategy.ParsePure(1, strategy.TFT(1).String())
	if err != nil {
		t.Fatal(err)
	}
	tft2 := internAll(t, cache, parsed)[0]
	if tft2 != tft {
		t.Fatalf("equal move tables interned as %d and %d", tft, tft2)
	}
	if _, err := cache.PlayID(tft2, alld); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 {
		t.Fatal("equal move tables should share one cache entry")
	}
}

// internAll interns every strategy into the cache's registry and returns
// their IDs in order.
func internAll(t testing.TB, cache *PairCache, ss ...strategy.Strategy) []uint32 {
	t.Helper()
	ids := make([]uint32, len(ss))
	for i, s := range ss {
		id, err := cache.Interner().Intern(s)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func TestPairCacheMatchesEngine(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	all := strategy.AllMemoryOne()
	ids := make([]uint32, len(all))
	for i, s := range all {
		ids[i] = internAll(t, cache, s)[0]
	}
	for i, a := range all {
		for j, b := range all {
			want, err := eng.Play(a, b, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cache.PlayID(ids[i], ids[j])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s vs %s: cache %+v, engine %+v", a, b, got, want)
			}
		}
	}
	if cache.Hits() == 0 {
		t.Fatal("mirrored storage should produce hits during an all-pairs sweep")
	}
}

func TestPairCacheConcurrentUse(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	all := strategy.AllMemoryOne()
	var wg sync.WaitGroup
	results := make([][]game.Result, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, a := range all {
				for _, b := range all {
					// Interning concurrently exercises the registry too.
					ida, errA := cache.Interner().Intern(a)
					idb, errB := cache.Interner().Intern(b)
					if errA != nil || errB != nil {
						t.Error(errA, errB)
						return
					}
					res, err := cache.PlayID(ida, idb)
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = append(results[w], res)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d observed a different result at game %d", w, i)
			}
		}
	}
	if cache.storedPairs() != 16*16 {
		t.Fatalf("cache holds %d pairs, want 256", cache.storedPairs())
	}
}

func TestNewPairCacheNilEngine(t *testing.T) {
	if _, err := NewPairCache(nil); err == nil {
		t.Fatal("accepted a nil engine")
	}
}

// TestMemoizes pins the one decision that takes a run off the pair
// store: EvalFull or noise.  NewStore builds a store exactly when it
// holds, bound to the configured game.
func TestMemoizes(t *testing.T) {
	for _, tc := range []struct {
		mode  EvalMode
		noise float64
		want  bool
	}{
		{EvalFull, 0, false},
		{EvalFull, 0.05, false},
		{EvalCached, 0, true},
		{EvalCached, 0.05, false},
		{EvalIncremental, 0, true},
		{EvalIncremental, 0.05, false},
	} {
		if got := Memoizes(tc.mode, tc.noise); got != tc.want {
			t.Errorf("Memoizes(%v, %v) = %v, want %v", tc.mode, tc.noise, got, tc.want)
		}
		cfg := game.EngineConfig{Rounds: 10, MemorySteps: 2, Noise: tc.noise}
		store, err := NewStore(cfg, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if (store != nil) != tc.want {
			t.Fatalf("NewStore(noise %v, %v) = %v, want a store: %v", tc.noise, tc.mode, store, tc.want)
		}
		if store != nil && store.store.memorySteps != 2 {
			t.Fatalf("store bound to memory %d, want 2", store.store.memorySteps)
		}
	}
	if _, err := NewStore(game.EngineConfig{Rounds: 10, MemorySteps: 9}, EvalCached); err == nil {
		t.Fatal("NewStore accepted an invalid engine config")
	}
}

// bruteFitness computes SSet i's all-pairs fitness directly with the engine.
func bruteFitness(t *testing.T, eng *game.Engine, table []strategy.Strategy, i int) float64 {
	t.Helper()
	total := 0.0
	for j := range table {
		if j == i {
			continue
		}
		res, err := eng.Play(table[i], table[j], nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.FitnessA
	}
	return total
}

func testTable(n int, seed uint64) []strategy.Strategy {
	src := rng.New(seed)
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = strategy.RandomPure(1, src)
	}
	return table
}

func TestIncrementalMatrixMatchesBruteForce(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(12, 5)
	m, err := NewIncrementalMatrix(cache, nil, table, 0, len(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := range table {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("row %d: matrix %v, brute force %v", i, got, want)
		}
	}
}

func TestIncrementalMatrixUpdateStaysExact(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(10, 9)
	m, err := NewIncrementalMatrix(cache, nil, table, 0, len(table))
	if err != nil {
		t.Fatal(err)
	}
	// Materialise every row, then churn the table through a sequence of
	// strategy changes and require the delta-updated sums to equal a fresh
	// brute-force evaluation after every change.
	for i := range table {
		if _, err := m.Fitness(i); err != nil {
			t.Fatal(err)
		}
	}
	src := rng.New(77)
	for step := 0; step < 25; step++ {
		idx := src.Intn(len(table))
		var s strategy.Strategy
		if src.Coin() {
			s = strategy.RandomPure(1, src) // mutation
		} else {
			s = table[src.Intn(len(table))].Clone() // adoption
		}
		table[idx] = s
		if err := m.Update(idx, s); err != nil {
			t.Fatal(err)
		}
		for i := range table {
			got, err := m.Fitness(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteFitness(t, eng, table, i); got != want {
				t.Fatalf("step %d: row %d: matrix %v, brute force %v", step, i, got, want)
			}
		}
	}
}

func TestIncrementalMatrixLazyRows(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	table := []strategy.Strategy{strategy.TFT(1), strategy.AllD(1), strategy.WSLS(1), strategy.AllC(1)}
	m, err := NewIncrementalMatrix(cache, nil, table, 0, len(table))
	if err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 0 {
		t.Fatal("matrix construction should not play games")
	}
	if _, err := m.Fitness(2); err != nil {
		t.Fatal(err)
	}
	plays := cache.Misses()
	if plays == 0 || plays > 3 {
		t.Fatalf("one row of 3 opponents played %d games", plays)
	}
	// An update before other rows are built must not force them.
	if err := m.Update(1, strategy.TFT(1)); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() > plays+1 {
		t.Fatalf("update of one column played %d extra games", cache.Misses()-plays)
	}
}

func TestIncrementalMatrixBlockRange(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(9, 13)
	lo, hi := 3, 7
	m, err := NewIncrementalMatrix(cache, nil, table, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if gotLo, gotHi := m.lo, m.hi; gotLo != lo || gotHi != hi {
		t.Fatalf("Rows() = [%d,%d)", gotLo, gotHi)
	}
	for i := lo; i < hi; i++ {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("row %d: matrix %v, brute force %v", i, got, want)
		}
	}
	if _, err := m.Fitness(0); err == nil {
		t.Fatal("accepted a row outside the materialised block")
	}
	// A change outside the block must still delta-update local columns.
	table[0] = strategy.AllD(1)
	if err := m.Update(0, table[0]); err != nil {
		t.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("after remote update, row %d: matrix %v, brute force %v", i, got, want)
		}
	}
}

func TestIncrementalMatrixValidation(t *testing.T) {
	cache, err := NewPairCache(newEngine(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(4, 1)
	if _, err := NewIncrementalMatrix(nil, nil, table, 0, 4); err == nil {
		t.Fatal("accepted a nil cache")
	}
	if _, err := NewIncrementalMatrix(cache, nil, table, -1, 4); err == nil {
		t.Fatal("accepted a negative lo")
	}
	if _, err := NewIncrementalMatrix(cache, nil, table, 2, 1); err == nil {
		t.Fatal("accepted hi < lo")
	}
	if _, err := NewIncrementalMatrix(cache, nil, table, 0, 5); err == nil {
		t.Fatal("accepted hi beyond the table")
	}
	if _, err := NewIncrementalMatrix(cache, nil, []strategy.Strategy{nil}, 0, 1); err == nil {
		t.Fatal("accepted a nil strategy")
	}
	m, err := NewIncrementalMatrix(cache, nil, table, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update(9, strategy.TFT(1)); err == nil {
		t.Fatal("accepted an out-of-range update index")
	}
	if err := m.Update(0, nil); err == nil {
		t.Fatal("accepted a nil strategy update")
	}
	if m.table.Len() != 4 {
		t.Fatalf("table Len() = %d", m.table.Len())
	}
}

// TestIncrementalMatrixGraphRestricted covers the degree-indexed graph
// rows: fitness sums only graph neighbors, Update delta-updates only
// adjacent built rows, and both stay equal to a brute-force neighbor sum
// through a churn of strategy changes.
func TestIncrementalMatrixGraphRestricted(t *testing.T) {
	eng := newEngine(t, 0)
	cache, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(12, 5)
	spec, err := topology.Parse("ring:4")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(len(table), 3)
	if err != nil {
		t.Fatal(err)
	}
	bruteNeighbor := func(i int) float64 {
		total := 0.0
		for _, j := range topology.Neighbors(g, i) {
			res, err := eng.Play(table[i], table[j], nil)
			if err != nil {
				t.Fatal(err)
			}
			total += res.FitnessA
		}
		return total
	}
	m, err := NewIncrementalMatrix(cache, g, table, 0, len(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := range table {
		got, err := m.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNeighbor(i); got != want {
			t.Fatalf("row %d: graph matrix %v, brute force %v", i, got, want)
		}
	}
	src := rng.New(77)
	for step := 0; step < 30; step++ {
		idx := src.Intn(len(table))
		table[idx] = strategy.RandomPure(1, src)
		if err := m.Update(idx, table[idx]); err != nil {
			t.Fatal(err)
		}
		for i := range table {
			got, err := m.Fitness(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteNeighbor(i); got != want {
				t.Fatalf("step %d row %d: graph matrix %v, brute force %v", step, i, got, want)
			}
		}
	}
	// The complete graph must collapse to the strategy-keyed well-mixed
	// rows and agree with the all-pairs brute force.
	wm, err := (topology.Spec{}).Build(len(table), 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewIncrementalMatrix(cache, wm, table, 0, len(table))
	if err != nil {
		t.Fatal(err)
	}
	for i := range table {
		got, err := dense.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteFitness(t, eng, table, i); got != want {
			t.Fatalf("complete-graph row %d: %v, want %v", i, got, want)
		}
	}
}
