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
	// Strategy changes both copy existing strategies (as learning does) and
	// introduce new ones (as mutation does).
	for step := 1; step <= 40; step++ {
		idx := src.Intn(n)
		s := table[src.Intn(n)].Clone()
		if step%3 == 0 {
			s = strategy.RandomPure(2, src)
		}
		table[idx] = s
		if err := ev.Apply(idx, s); err != nil {
			t.Fatal(err)
		}
		check(step)
	}
}

func TestNewEvaluatorStaysOffTheCache(t *testing.T) {
	g, err := (topology.Spec{}).Build(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	pure := []strategy.Strategy{strategy.TFT(1), strategy.WSLS(1), strategy.AllD(1)}
	mixed := []strategy.Strategy{strategy.TFT(1), strategy.NewMixed(1), strategy.AllD(1)}
	for _, tc := range []struct {
		name  string
		noise float64
		table []strategy.Strategy
		mode  EvalMode
	}{
		{"full", 0, pure, EvalFull},
		{"noisy cached", 0.05, pure, EvalCached},
		{"noisy incremental", 0.05, pure, EvalIncremental},
		{"mixed cached", 0, mixed, EvalCached},
		{"mixed incremental", 0, mixed, EvalIncremental},
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
	if b.Cache().Plays() != 0 {
		t.Fatalf("the second view played %d games; the first warmed every pair", b.Cache().Plays())
	}
	other, err := game.NewEngine(game.EngineConfig{Rounds: 60, MemorySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluator(other, g, table, 0, 4, EvalCached, shared); err == nil {
		t.Fatal("accepted a shared cache bound to a different game")
	}
}
