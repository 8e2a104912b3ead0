package fitness

import (
	"testing"

	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// liveClones counts the IDs of reg that still resolve to a strategy.
func liveClones(reg *intern.Registry) int {
	n := 0
	for id := uint32(0); int(id) < reg.Len(); id++ {
		if _, err := reg.Strategy(id); err == nil {
			n++
		}
	}
	return n
}

// retireWorld is a memory-three, well-mixed population and its seeded
// stream of strategy-table updates, as the Nature Agent draws them: each
// generation a possible adoption, then a possible mutation to a fresh
// random strategy.
type retireWorld struct {
	eng     *game.Engine
	graph   topology.Graph
	initial []strategy.Strategy
	updates []retireUpdate
}

type retireUpdate struct {
	adopt            bool
	learner, teacher int
	mutate           bool
	target           int
	mutant           strategy.Strategy
}

func newRetireWorld(t *testing.T, n, gens int, seed uint64) retireWorld {
	t.Helper()
	spec, err := topology.Parse("wellmixed")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Build(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := retireWorld{eng: testEngine(t, game.EngineConfig{Rounds: 32, MemorySteps: 3}), graph: g}
	src := rng.New(seed)
	for i := 0; i < n; i++ {
		w.initial = append(w.initial, strategy.RandomPure(3, src))
	}
	for gen := 0; gen < gens; gen++ {
		u := retireUpdate{adopt: src.Intn(2) == 0, learner: src.Intn(n), teacher: src.Intn(n)}
		if u.mutate = src.Intn(3) == 0; u.mutate {
			u.target, u.mutant = src.Intn(n), strategy.RandomPure(3, src)
		}
		w.updates = append(w.updates, u)
	}
	return w
}

// step evaluates the evaluator's rows [lo, hi) and applies generation
// gen, as an SSet rank does each generation.
func (w retireWorld) step(t *testing.T, ev *Evaluator, lo, hi, gen int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if _, err := ev.Fitness(i); err != nil {
			t.Fatal(err)
		}
	}
	u := w.updates[gen]
	if u.adopt && u.learner != u.teacher {
		if err := ev.Adopt(u.learner, u.teacher); err != nil {
			t.Fatal(err)
		}
	}
	if u.mutate {
		if err := ev.Apply(u.target, u.mutant); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetiredClonesFollowPopulation runs one evaluator, alone on a
// private store, through a long mutation stream: the registry must never
// hold more clones than the strategies present, however many it issued.
func TestRetiredClonesFollowPopulation(t *testing.T) {
	const n, gens = 16, 4000
	for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
		t.Run(mode.String(), func(t *testing.T) {
			w := newRetireWorld(t, n, gens, 5)
			ev, err := NewEvaluator(w.eng, w.graph, w.initial, 0, n, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			reg := ev.Cache().Interner()
			for gen := 0; gen < gens; gen++ {
				w.step(t, ev, 0, n, gen)
				if gen%50 == 0 {
					if live, present := liveClones(reg), len(ev.Table().Present()); live > present {
						t.Fatalf("generation %d: %d clones for %d present strategies", gen, live, present)
					}
				}
			}
			if issued := reg.Len(); issued < 1000 {
				t.Fatalf("only %d IDs issued; the stream is too short to show anything", issued)
			}
			ev.Release()
			if live := liveClones(reg); live != 0 {
				t.Fatalf("%d clones left after the run released its table", live)
			}
		})
	}
}

// TestRetiredClonesFollowLowWaterMark runs four evaluators sharing one
// run's clock, as the SSet ranks of a distributed run do, through the same
// update stream at different paces, up to six generations apart.  The
// registry must hold no clone outside the tables of the generations from
// the low-water mark up, and the ranks together must play exactly the
// games one evaluator plays alone: no rank ever finds the ID of a
// strategy it has yet to enter retired.
func TestRetiredClonesFollowLowWaterMark(t *testing.T) {
	const n, gens, ranks, maxLag = 24, 3000, 4, 6
	for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
		t.Run(mode.String(), func(t *testing.T) {
			w := newRetireWorld(t, n, gens, 9)
			solo, err := NewEvaluator(w.eng, w.graph, w.initial, 0, n, mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			store, err := NewPairCache(w.eng)
			if err != nil {
				t.Fatal(err)
			}
			run := store.ForRun(ranks, false)
			evs := make([]*Evaluator, ranks)
			for r := range evs {
				lo, hi := r*n/ranks, (r+1)*n/ranks
				if evs[r], err = NewEvaluator(w.eng, w.graph, w.initial, lo, hi, mode, run); err != nil {
					t.Fatal(err)
				}
			}
			// tables[g+1] is every ID present after generation g.
			tables := [][]uint32{append([]uint32(nil), evs[0].Table().Present()...)}
			done := make([]int, ranks)
			pace := rng.New(77)
			for step := 0; ; step++ {
				low := gens
				for _, d := range done {
					low = min(low, d)
				}
				if low == gens {
					break
				}
				r := pace.Intn(ranks)
				if done[r] == gens || done[r]-low >= maxLag {
					continue
				}
				gen := done[r]
				w.step(t, evs[r], r*n/ranks, (r+1)*n/ranks, gen)
				evs[r].EndGeneration()
				done[r]++
				if len(tables) == gen+1 {
					w.step(t, solo, 0, n, gen)
					tables = append(tables, append([]uint32(nil), evs[r].Table().Present()...))
				}
				if step%25 == 0 {
					mark := gens
					for _, d := range done {
						mark = min(mark, d)
					}
					allowed := map[uint32]bool{}
					for _, ids := range tables[mark:] {
						for _, id := range ids {
							allowed[id] = true
						}
					}
					if live := liveClones(store.Interner()); live > len(allowed) {
						t.Fatalf("step %d: %d clones, %d IDs present since the low-water mark %d", step, live, len(allowed), mark)
					}
				}
			}
			var misses int64
			for _, ev := range evs {
				misses += ev.Cache().Misses()
				ev.Release()
			}
			if want := solo.Cache().Misses(); misses != want {
				t.Fatalf("the ranks played %d games, one evaluator alone %d", misses, want)
			}
			if live := liveClones(store.Interner()); live != 0 {
				t.Fatalf("%d clones left after every rank released its table", live)
			}
		})
	}
}

// TestRetirementKeepsSharedInitialTable runs four replicates one after
// another over a store shared across runs, all from one initial table
// (the ensemble's shape).  The initial table's IDs are pinned, so every
// later replicate finds the pairs among them: it misses less than a
// replicate on a private store.  No replicate holds more clones than its
// present strategies and the pinned ones.
func TestRetirementKeepsSharedInitialTable(t *testing.T) {
	const n, gens = 16, 1500
	for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
		t.Run(mode.String(), func(t *testing.T) {
			shared := newRetireWorld(t, n, 0, 3)
			store, err := NewPairCache(shared.eng)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[string]bool{}
			for _, s := range shared.initial {
				distinct[s.String()] = true
			}
			for rep := 0; rep < 4; rep++ {
				w := newRetireWorld(t, n, gens, uint64(20+rep))
				w.initial = shared.initial
				private, err := NewEvaluator(w.eng, w.graph, w.initial, 0, n, mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := NewEvaluator(w.eng, w.graph, w.initial, 0, n, mode, store.ForRun(1, true))
				if err != nil {
					t.Fatal(err)
				}
				for gen := 0; gen < gens; gen++ {
					w.step(t, ev, 0, n, gen)
					w.step(t, private, 0, n, gen)
					if gen%50 == 0 {
						if live, bound := liveClones(store.Interner()), len(ev.Table().Present())+len(distinct); live > bound {
							t.Fatalf("replicate %d generation %d: %d clones, %d present and pinned", rep, gen, live, bound)
						}
					}
				}
				got, want := ev.Cache().Misses(), private.Cache().Misses()
				if rep == 0 && got != want || rep > 0 && got >= want {
					t.Fatalf("replicate %d: %d misses on the shared store, %d on a private one", rep, got, want)
				}
				ev.Release()
				if live := liveClones(store.Interner()); live != len(distinct) {
					t.Fatalf("replicate %d: %d clones after release, want the %d pinned", rep, live, len(distinct))
				}
			}
		})
	}
}
