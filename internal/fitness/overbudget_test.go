package fitness

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// overBudgetGolden is what one seeded Apply/Adopt sequence over a tiny
// shard budget plays, misses and evicts, with an FNV-1a hash of every
// fitness value it read.  The constants were recorded on the store that
// kept every pair in one probed table; the split into a hot table and a
// cold log must reproduce them exactly.
type overBudgetGolden struct {
	plays, misses, evicted int64
	fitHash                uint64
}

// TestOverBudgetGolden drives a well-mixed S=96 memory-two population
// through evaluators whose store evicts constantly: at shard budgets 16
// and 64, in EvalCached and EvalIncremental, with mutants drawn fresh or,
// three times in four, from a 12-strategy pool, so that extinct strategies
// re-enter often while fresh ones still overflow the budget.
func TestOverBudgetGolden(t *testing.T) {
	want := map[string]overBudgetGolden{
		"16/cached/pool":       {9605, 9605, 17951, 0x31af304f6a4b851c},
		"16/cached/fresh":      {125028, 125028, 248251, 0xca06d7a604648226},
		"16/incremental/pool":  {3747, 3747, 6386, 0x31af304f6a4b851c},
		"16/incremental/fresh": {37686, 37686, 74206, 0xca06d7a604648226},
		"64/cached/pool":       {1917, 1917, 208, 0x31af304f6a4b851c},
		"64/cached/fresh":      {78117, 78117, 151986, 0xca06d7a604648226},
		"64/incremental/pool":  {1956, 1956, 256, 0x31af304f6a4b851c},
		"64/incremental/fresh": {29924, 29924, 56001, 0xca06d7a604648226},
	}
	for _, budget := range []int{16, 64} {
		for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
			for _, pool := range []bool{true, false} {
				kind := "fresh"
				if pool {
					kind = "pool"
				}
				name := fmt.Sprintf("%d/%v/%s", budget, mode, kind)
				t.Run(name, func(t *testing.T) {
					got := runOverBudget(t, budget, mode, pool)
					if got != want[name] {
						t.Fatalf("got %+v, want %+v", got, want[name])
					}
				})
			}
		}
	}
}

func runOverBudget(t *testing.T, budget int, mode EvalMode, usePool bool) overBudgetGolden {
	const n, mem, steps = 96, 2, 600
	shared := testCacheSmallShards(t, budget)
	var pool []strategy.Strategy
	for seed := uint64(1); seed <= 12; seed++ {
		pool = append(pool, strategy.RandomPure(mem, rng.New(seed)))
	}
	src := rng.New(2013)
	draw := func() strategy.Strategy {
		if usePool && src.Intn(4) != 0 {
			return pool[src.Intn(len(pool))]
		}
		return strategy.RandomPure(mem, src)
	}
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = draw()
	}
	spec, err := topology.Parse("wellmixed")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(shared.eng, g, table, 0, n, mode, shared)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var buf [8]byte
	read := func(i int) {
		f, err := ev.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		bits := math.Float64bits(f)
		for k := range buf {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
	}
	for step := 0; step < steps; step++ {
		teacher, learner := src.Intn(n), src.Intn(n)
		read(teacher)
		read(learner)
		if step%50 == 0 {
			for i := 0; i < n; i++ {
				read(i)
			}
		}
		switch step % 4 {
		case 0, 1:
			err = ev.Adopt(learner, teacher)
		case 2:
			err = ev.Apply(learner, draw())
		default:
			// A mutant that wipes out a strategy: every holder of
			// learner's strategy is replaced.
			old := ev.Table().ID(learner)
			s := draw()
			for i := 0; i < n && err == nil; i++ {
				if ev.Table().ID(i) == old {
					err = ev.Apply(i, s)
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	c := ev.Cache()
	if c.Evicted() == 0 {
		t.Fatal("the tiny budget never evicted")
	}
	return overBudgetGolden{plays: c.Plays(), misses: c.Misses(), evicted: c.Evicted(), fitHash: h.Sum64()}
}
