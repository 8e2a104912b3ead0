package fitness

import (
	"fmt"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// oracleFitness is the independent reference for Evaluator.Fitness: SSet
// i's payoff against each graph neighbour, played afresh by the engine and
// summed in neighbour order.
func oracleFitness(t *testing.T, eng *game.Engine, g topology.Graph, table []strategy.Strategy, i int) float64 {
	t.Helper()
	total := 0.0
	for k := 0; k < g.Degree(i); k++ {
		res, err := eng.Play(table[i], table[g.Neighbor(i, k)], nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.FitnessA
	}
	return total
}

func TestEvaluatorMatchesOracle(t *testing.T) {
	const n = 20
	fractional, err := game.Generic().WithPayoff(game.Matrix{Reward: 3, Sucker: 0.1, Temptation: 4.1, Punishment: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	games := []struct {
		name string
		spec game.Spec
	}{{"ipd", game.Spec{}}, {"fractional", fractional}}
	graphs := []string{"wellmixed", "ring:4"}
	blocks := [][2]int{{0, n}, {6, 13}}
	for _, gm := range games {
		eng, err := game.NewEngine(game.EngineConfig{Game: gm.spec, Rounds: 50, MemorySteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
			for _, topo := range graphs {
				for _, block := range blocks {
					name := fmt.Sprintf("%s/%v/%s/[%d,%d)", gm.name, mode, topo, block[0], block[1])
					t.Run(name, func(t *testing.T) {
						testEvaluatorAgainstOracle(t, eng, mode, topo, block[0], block[1])
					})
				}
			}
		}
	}
}

func testEvaluatorAgainstOracle(t *testing.T, eng *game.Engine, mode EvalMode, topo string, lo, hi int) {
	const n = 20
	spec, err := topology.Parse(topo)
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = strategy.RandomPure(2, src)
	}
	ev, err := NewEvaluator(eng, g, table, lo, hi, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatal("NewEvaluator returned nil for a noiseless deterministic table")
	}
	if want := mode == EvalIncremental && DeltaExact(eng); (ev.matrix != nil) != want {
		t.Fatalf("incremental matrix built = %v, want %v", ev.matrix != nil, want)
	}
	check := func(step int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			got, err := ev.Fitness(i)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleFitness(t, eng, g, table, i); got != want {
				t.Fatalf("step %d SSet %d: evaluator %v, oracle %v", step, i, got, want)
			}
		}
	}
	check(0)
	// Strategy changes both copy existing strategies (as learning does,
	// reported through Adopt or Apply) and introduce new ones (as mutation
	// does).
	for step := 1; step <= 40; step++ {
		idx, teacher := src.Intn(n), src.Intn(n)
		if step%3 == 2 {
			table[idx] = table[teacher].Clone()
			if err := ev.Adopt(idx, teacher); err != nil {
				t.Fatal(err)
			}
			check(step)
			continue
		}
		s := table[teacher].Clone()
		if step%3 == 0 {
			s = strategy.RandomPure(2, src)
		}
		table[idx] = s
		if err := ev.Apply(idx, s); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
	if err := ev.Adopt(n, 0); err == nil {
		t.Fatal("Adopt accepted a learner outside the table")
	}
}

func TestNewEvaluatorStaysOffTheCache(t *testing.T) {
	g, err := (topology.Spec{}).Build(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	pure := []strategy.Strategy{strategy.TFT(1), strategy.WSLS(1), strategy.AllD(1)}
	for _, tc := range []struct {
		name  string
		noise float64
		table []strategy.Strategy
		mode  EvalMode
	}{
		{"full", 0, pure, EvalFull},
		{"noisy cached", 0.05, pure, EvalCached},
		{"noisy incremental", 0.05, pure, EvalIncremental},
	} {
		ev, err := NewEvaluator(newEngine(t, tc.noise), g, tc.table, 0, len(tc.table), tc.mode, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ev != nil {
			t.Fatalf("%s: NewEvaluator built an evaluator; the run must stay on EvalFull", tc.name)
		}
		if ev.Cache() != nil {
			t.Fatalf("%s: a nil evaluator reported a cache", tc.name)
		}
	}
}

func TestNewEvaluatorSharedView(t *testing.T) {
	eng := newEngine(t, 0)
	shared, err := NewPairCache(eng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := (topology.Spec{}).Build(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := testTable(4, 9)
	a, err := NewEvaluator(eng, g, table, 0, 4, EvalCached, shared)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEvaluator(eng, g, table, 0, 4, EvalIncremental, shared)
	if err != nil {
		t.Fatal(err)
	}
	for i := range table {
		fa, err := a.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := b.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if fa != fb {
			t.Fatalf("SSet %d: cached %v, incremental %v", i, fa, fb)
		}
	}
	if a.Cache() == shared || b.Cache() == shared {
		t.Fatal("evaluators must play through views, not the shared cache itself")
	}
	if b.Cache().Misses() != 0 {
		t.Fatalf("the second view played %d games; the first warmed every pair", b.Cache().Misses())
	}
	other, err := game.NewEngine(game.EngineConfig{Rounds: 60, MemorySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(other, g, table, 0, 4, EvalCached, shared); err == nil {
		t.Fatal("accepted a shared cache bound to a different game")
	}
}

// TestEvaluatorAbundancePath drives the well-mixed EvalCached evaluator,
// which sums by strategy abundance, through a seeded sequence of adoptions
// and mutations.  After every event each row's fitness must equal the
// engine's payoffs summed in neighbour order, bit for bit.  A twin pair of
// evaluators over tiny-budget stores, one forced onto the neighbour-order
// loop, must report identical plays, misses and evictions throughout: the
// abundance order may only run while it cannot change which pairs are
// evicted.
func TestEvaluatorAbundancePath(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, lo, hi int
		distinct  int // size of the initial strategy pool; 0 draws every SSet fresh
		steps     int
		evicts    bool // the run must both take the abundance path and evict
	}{
		{"S=2", 2, 0, 2, 0, 100, false},
		{"S=3", 3, 0, 3, 0, 100, false},
		{"S=64", 64, 0, 64, 4, 150, true},
		{"S=200", 200, 0, 200, 20, 30, false},
		{"single-strategy", 16, 0, 16, 1, 100, false},
		{"block", 64, 20, 41, 4, 150, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testAbundancePath(t, tc.n, tc.lo, tc.hi, tc.distinct, tc.steps, tc.evicts)
		})
	}
}

func testAbundancePath(t *testing.T, n, lo, hi, distinct, steps int, evicts bool) {
	const budget = 16 // small enough to evict, large enough for early abundance calls
	abund, twin := testCacheSmallShards(t, budget), testCacheSmallShards(t, budget)
	eng := abund.eng
	g, err := (topology.Spec{}).Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(uint64(1000 + n + lo))
	table := make([]strategy.Strategy, n)
	pool := make([]strategy.Strategy, distinct)
	for k := range pool {
		pool[k] = strategy.RandomPure(2, src)
	}
	for i := range table {
		if distinct == 0 {
			table[i] = strategy.RandomPure(2, src)
		} else {
			table[i] = pool[src.Intn(distinct)].Clone()
		}
	}
	newEval := func(shared *PairCache) *Evaluator {
		ev, err := NewEvaluator(eng, g, table, lo, hi, EvalCached, shared)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil || !ev.byAbundance {
			t.Fatal("a well-mixed integer-payoff EvalCached evaluator must take the abundance path")
		}
		return ev
	}
	ev := newEval(nil)
	a, b := newEval(abund), newEval(twin)
	b.byAbundance = false // the twin sums in neighbour order

	oracle := make(map[[2]strategy.Strategy]float64)
	play := func(x, y strategy.Strategy) float64 {
		k := [2]strategy.Strategy{x, y}
		if v, ok := oracle[k]; ok {
			return v
		}
		res, err := eng.Play(x, y, nil)
		if err != nil {
			t.Fatal(err)
		}
		oracle[k] = res.FitnessA
		return res.FitnessA
	}
	check := func(step int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			want := 0.0
			for k := 0; k < g.Degree(i); k++ {
				want += play(table[i], table[g.Neighbor(i, k)])
			}
			for k, e := range []*Evaluator{ev, a, b} {
				got, err := e.Fitness(i)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("step %d SSet %d: evaluator %d (private, tiny store, twin) %v, oracle %v", step, i, k, got, want)
				}
			}
		}
		ca, cb := a.Cache(), b.Cache()
		if ca.Misses() != cb.Misses() || ca.Evicted() != cb.Evicted() {
			t.Fatalf("step %d: misses/evicted %d/%d, neighbour-order twin %d/%d", step,
				ca.Misses(), ca.Evicted(), cb.Misses(), cb.Evicted())
		}
	}
	check(0)
	for step := 1; step <= steps; step++ {
		idx := src.Intn(n)
		switch r := src.Intn(10); {
		case r < 5: // adoption: copy another SSet's strategy by ID
			teacher := src.Intn(n)
			table[idx] = table[teacher].Clone()
			for _, e := range []*Evaluator{ev, a, b} {
				if err := e.Adopt(idx, teacher); err != nil {
					t.Fatal(err)
				}
			}
		default: // mutation, or a copy reported through Apply
			var s strategy.Strategy = strategy.RandomPure(2, src)
			if r == 9 {
				s = table[src.Intn(n)].Clone()
			}
			table[idx] = s
			for _, e := range []*Evaluator{ev, a, b} {
				if err := e.Apply(idx, s); err != nil {
					t.Fatal(err)
				}
			}
		}
		check(step)
	}
	if n > 2 && ev.Cache().Hits() >= b.Cache().Hits() {
		t.Fatalf("abundance path served %d hits, no fewer than the neighbour loop's %d", ev.Cache().Hits(), b.Cache().Hits())
	}
	if evicts {
		if a.Cache().Evicted() == 0 {
			t.Fatal("the tiny store never evicted; the twin comparison proves nothing")
		}
		if a.Cache().Hits() >= b.Cache().Hits() {
			t.Fatalf("abundance path never ran on the tiny store: hits %d, twin %d", a.Cache().Hits(), b.Cache().Hits())
		}
	}
}
