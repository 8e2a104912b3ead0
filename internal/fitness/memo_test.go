package fitness

import (
	"fmt"
	"math"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// FuzzAbundanceMemo drives an abundance-path evaluator through drawn
// sequences of Apply and Adopt calls — mutants, same-ID changes and
// strategies that leave the table and enter it again — and asks Fitness of
// a few SSets after each.  Every answer must carry the float bits of a
// neighbour-order sum through a separate private PairCache, the misses
// must be that sum's, and hits plus misses must be one per distinct
// opponent strategy of every call: the memo reads count as the store hits
// they stand for.
func FuzzAbundanceMemo(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(uint8(14), uint8(1), uint64(7), []byte("mutants leave and enter again while the memo follows"))
	f.Add(uint8(30), uint8(2), uint64(3), []byte{2, 0, 2, 0, 3, 1, 3, 1, 1, 2, 0, 5, 2, 5, 3, 5})
	f.Fuzz(func(t *testing.T, size, mem uint8, seed uint64, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		testAbundanceMemo(t, 2+int(size)%31, 1+int(mem)%3, seed, ops)
	})
}

// TestAbundanceMemoSeeded is FuzzAbundanceMemo over long seeded sequences
// at every memory depth it draws.
func TestAbundanceMemoSeeded(t *testing.T) {
	length := 900
	if testing.Short() {
		length = 300
	}
	for mem := 1; mem <= 3; mem++ {
		for _, n := range []int{2, 9, 32} {
			t.Run(fmt.Sprintf("m%d/S=%d", mem, n), func(t *testing.T) {
				src := rng.New(uint64(100*mem + n))
				ops := make([]byte, length)
				for i := range ops {
					ops[i] = byte(src.Intn(256))
				}
				testAbundanceMemo(t, n, mem, uint64(n), ops)
			})
		}
	}
}

// memoEngine returns a noiseless engine of the given memory depth.
func memoEngine(t testing.TB, mem int) *game.Engine {
	t.Helper()
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds: 20, MemorySteps: mem, StateMode: game.StateRolling, AccumMode: game.AccumLookup,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testAbundanceMemo runs one sequence: ops is read three bytes at a time
// (kind, SSet, argument).
func testAbundanceMemo(t *testing.T, n, mem int, seed uint64, ops []byte) {
	eng := memoEngine(t, mem)
	g, err := (topology.Spec{}).Build(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	// pool holds every strategy drawn, so one that left the table can be
	// set again.
	pool := make([]strategy.Strategy, 0, n+len(ops)/3)
	table := make([]strategy.Strategy, n)
	for i := range table {
		if i > 0 && src.Intn(3) == 0 {
			table[i] = table[src.Intn(i)]
		} else {
			table[i] = strategy.RandomPure(mem, src)
			pool = append(pool, table[i])
		}
	}
	ev, err := NewEvaluator(eng, g, table, 0, n, EvalCached, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEvaluator(eng, g, table, 0, n, EvalCached, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Release()
	defer ref.Release()
	if !ev.byAbundance || ev.memo == nil {
		t.Fatal("a well-mixed integer-payoff EvalCached evaluator must take the abundance path")
	}
	ref.byAbundance = false // the reference sums in neighbour order

	want := make(map[[2]strategy.Strategy]float64) // payoffs of strategy pairs, played afresh
	var lookups int64                              // Σ distinct opponent strategies over ev's calls
	fitness := func(i int) {
		t.Helper()
		got, err := ev.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := ref.Fitness(i)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(exp) {
			t.Fatalf("Fitness(%d) = %v, neighbour-order sum %v", i, got, exp)
		}
		for k, s := range table {
			seen := k == i
			for j := 0; j < k && !seen; j++ {
				seen = j != i && table[j].Equal(s)
			}
			if !seen {
				lookups++
			}
		}
	}
	check := func(step int) {
		t.Helper()
		c, rc := ev.Cache(), ref.Cache()
		if c.Misses() != rc.Misses() {
			t.Fatalf("step %d: %d misses, neighbour-order reference %d", step, c.Misses(), rc.Misses())
		}
		if c.Hits()+c.Misses() != lookups {
			t.Fatalf("step %d: %d hits + %d misses, want one per distinct opponent, %d", step, c.Hits(), c.Misses(), lookups)
		}
		// The memo covers the present positions, and what it knows is the
		// game's payoff of the pair at those positions.
		m, present := ev.memo, ev.table.Present()
		if m.n != len(present) || m.stride < m.n {
			t.Fatalf("step %d: memo covers %d positions at stride %d, table has %d", step, m.n, m.stride, len(present))
		}
		for p, a := range present {
			pay, known := m.row(p)
			for q, b := range present {
				if !known[q] {
					continue
				}
				k := [2]strategy.Strategy{ev.table.Strategy(a), ev.table.Strategy(b)}
				w, ok := want[k]
				if !ok {
					res, err := eng.Play(k[0], k[1], nil)
					if err != nil {
						t.Fatal(err)
					}
					w, want[k] = res.FitnessA, res.FitnessA
				}
				if math.Float64bits(pay[q]) != math.Float64bits(w) {
					t.Fatalf("step %d: memo holds %v for IDs (%d,%d), the game gives %v", step, pay[q], a, b, w)
				}
			}
		}
	}
	for i := 0; i < n; i += 3 {
		fitness(i)
	}
	check(0)
	for step := 1; 3*step <= len(ops); step++ {
		kind, idx, arg := ops[3*step-3], int(ops[3*step-2])%n, int(ops[3*step-1])
		var ch func(e *Evaluator) error
		switch kind % 4 {
		case 0: // a mutant
			s := strategy.RandomPure(mem, src)
			pool = append(pool, s)
			table[idx] = s
			ch = func(e *Evaluator) error { return e.Apply(idx, s) }
		case 1: // an adoption
			teacher := arg % n
			table[idx] = table[teacher]
			ch = func(e *Evaluator) error { return e.Adopt(idx, teacher) }
		case 2: // the SSet's own strategy again, through Apply or Adopt
			s := table[idx]
			if arg%2 == 0 {
				ch = func(e *Evaluator) error { return e.Apply(idx, s) }
			} else {
				ch = func(e *Evaluator) error { return e.Adopt(idx, idx) }
			}
		default: // a strategy drawn earlier, which may have left the table
			s := pool[arg%len(pool)]
			table[idx] = s
			ch = func(e *Evaluator) error { return e.Apply(idx, s) }
		}
		for _, e := range []*Evaluator{ev, ref} {
			if err := ch(e); err != nil {
				t.Fatal(err)
			}
		}
		fitness(idx)
		fitness(arg % n)
		fitness((idx + arg/7) % n)
		check(step)
	}
}
