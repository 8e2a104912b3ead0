package fitness

import (
	"fmt"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// incompleteView presents a graph's adjacency without claiming to be
// complete, so an IncrementalMatrix over the complete graph takes the
// degree-indexed row path instead of the strategy-keyed one.
type incompleteView struct{ topology.Graph }

func (incompleteView) Complete() bool { return false }

// TestIncrementalWellMixedMatchesOracle drives random Apply/Adopt/Fitness
// sequences, with lazily built rows over a random block [lo, hi), through
// the strategy-keyed well-mixed rows.  Every sum must equal a brute-force
// all-pairs sum played afresh by the engine, and after every step the
// games played and misses must equal those of the degree-indexed rows fed
// the same adjacency and the same sequence.
func TestIncrementalWellMixedMatchesOracle(t *testing.T) {
	for _, n := range []int{2, 7, 64} {
		for mem := 1; mem <= 3; mem++ {
			for trial := 0; trial < 3; trial++ {
				t.Run(fmt.Sprintf("S=%d/m%d/%d", n, mem, trial), func(t *testing.T) {
					testIncrementalWellMixed(t, n, mem, uint64(1000*n+10*mem+trial))
				})
			}
		}
	}
}

func testIncrementalWellMixed(t *testing.T, n, mem int, seed uint64) {
	eng, err := game.NewEngine(game.EngineConfig{Rounds: 20, MemorySteps: mem})
	if err != nil {
		t.Fatal(err)
	}
	g, err := (topology.Spec{}).Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	// A small pool makes strategies repeat, so rows are shared, released
	// and revived; fresh mutants keep new columns appearing.
	pool := make([]strategy.Strategy, 1+n/4)
	for k := range pool {
		pool[k] = strategy.RandomPure(mem, src)
	}
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = pool[src.Intn(len(pool))]
	}
	lo := src.Intn(n)
	hi := lo + 1 + src.Intn(n-lo)

	keyed, err := NewEvaluator(eng, g, table, lo, hi, EvalIncremental, nil)
	if err != nil {
		t.Fatal(err)
	}
	if keyed.matrix.graph != nil {
		t.Fatal("complete graph did not select the strategy-keyed rows")
	}
	byDegree, err := NewEvaluator(eng, incompleteView{g}, table, lo, hi, EvalIncremental, nil)
	if err != nil {
		t.Fatal(err)
	}
	if byDegree.matrix.graph == nil {
		t.Fatal("wrapped graph did not select the degree-indexed rows")
	}

	brute := func(i int) float64 {
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
	check := func(step, i int) {
		t.Helper()
		got, err := keyed.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := byDegree.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if want := brute(i); got != want || ref != want {
			t.Fatalf("step %d: SSet %d fitness %v (degree-indexed %v), brute force %v", step, i, got, ref, want)
		}
	}

	steps := 40 + 4*n
	for step := 0; step < steps; step++ {
		switch op := src.Intn(8); {
		case op < 4:
			check(step, lo+src.Intn(hi-lo))
		case op < 6:
			learner, teacher := src.Intn(n), src.Intn(n)
			table[learner] = table[teacher]
			if err := keyed.Adopt(learner, teacher); err != nil {
				t.Fatal(err)
			}
			if err := byDegree.Adopt(learner, teacher); err != nil {
				t.Fatal(err)
			}
		default:
			idx := src.Intn(n)
			if src.Coin() {
				table[idx] = strategy.RandomPure(mem, src)
			} else {
				table[idx] = pool[src.Intn(len(pool))].Clone()
			}
			if err := keyed.Apply(idx, table[idx]); err != nil {
				t.Fatal(err)
			}
			if err := byDegree.Apply(idx, table[idx]); err != nil {
				t.Fatal(err)
			}
		}
		if step%25 == 24 {
			for i := lo; i < hi; i++ {
				check(step, i)
			}
		}
		kc, dc := keyed.Cache(), byDegree.Cache()
		if kc.Misses() != dc.Misses() {
			t.Fatalf("step %d: strategy-keyed rows played %d games, degree-indexed %d",
				step, kc.Misses(), dc.Misses())
		}
	}
	if keyed.Cache().Evicted() != 0 {
		t.Fatal("oracle run evicted; the miss comparison needs headroom")
	}
}
