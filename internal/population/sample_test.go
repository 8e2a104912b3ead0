package population

import (
	"context"
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// stringSample is the reference for Model.Sample: strategies counted by
// their String rendering, each classic found by an Equal scan, and the top
// strategy's tie broken on the smallest rendering.
func stringSample(m *Model) AbundanceSample {
	strats := m.Strategies()
	n := float64(len(strats))
	counts := make(map[string]int)
	for _, s := range strats {
		counts[s.String()]++
	}
	best, bestCount := "", -1
	for k, c := range counts {
		if c > bestCount || (c == bestCount && k < best) {
			best, bestCount = k, c
		}
	}
	fractionOf := func(want strategy.Strategy) float64 {
		count := 0
		for _, s := range strats {
			if s.Equal(want) {
				count++
			}
		}
		return float64(count) / n
	}
	mem := m.cfg.MemorySteps
	s := AbundanceSample{
		Generation:   m.gen,
		Distinct:     len(counts),
		TopStrategy:  best,
		TopFraction:  float64(bestCount) / n,
		WSLSFraction: fractionOf(strategy.WSLS(mem)),
		TFTFraction:  fractionOf(strategy.TFT(mem)),
		AllDFraction: fractionOf(strategy.AllD(mem)),
	}
	totalStates, defecting := 0, 0
	for _, st := range strats {
		p := st.(*strategy.Pure)
		totalStates += p.NumStates()
		defecting += p.DefectionCount()
	}
	s.MeanDefectingStates = float64(defecting) / float64(totalStates)
	return s
}

// registry returns the registry behind the model's table.
func registry(m *Model) *intern.Registry {
	if m.ev != nil {
		return m.ev.Cache().Interner()
	}
	return m.pairs.reg
}

// tiedPool returns k distinct pure strategies of memory mem that share a
// random base and differ from it in one state each, spread over the whole
// move table (first and last state, word boundaries), so a tie at the top
// is decided anywhere in the rendering.
func tiedPool(mem, k int, src *rng.Source) []strategy.Strategy {
	base := strategy.RandomPure(mem, src)
	states := game.NumStates(mem)
	flips := []int{-1, 0, states - 1, states / 2, 63, 64, 1, states - 2}
	pool := make([]strategy.Strategy, 0, k)
	for j := 0; len(pool) < k; j++ {
		p := base.Clone().(*strategy.Pure)
		if j < len(flips) {
			if f := flips[j]; f >= 0 && f < states {
				p.FlipMove(f)
			}
		} else {
			p.FlipMove(src.Intn(states))
		}
		dup := false
		for _, q := range pool {
			dup = dup || q.Equal(p)
		}
		if !dup {
			pool = append(pool, p)
		}
	}
	return pool
}

// TestSampleMatchesStringOracle compares every Sample field with the
// String-keyed reference over seeded pure tables at memory 1, 2 and 6 whose
// top count is a forced multi-way tie, then through runs that adopt and
// mutate; and over an S=512 memory-six table whose every strategy ties at
// the top.  Sampling must never intern: an ID issued while sampling would
// renumber every strategy the run goes on to draw.
func TestSampleMatchesStringOracle(t *testing.T) {
	for _, mem := range []int{1, 2, 6} {
		for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("m%d/%v/seed%d", mem, mode, seed), func(t *testing.T) {
					testSampleOracle(t, mem, mode, seed)
				})
			}
		}
	}
	for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached} {
		t.Run(fmt.Sprintf("m6/all-tied/S512/%v", mode), func(t *testing.T) {
			cfg := baseConfig()
			cfg.NumSSets, cfg.MemorySteps, cfg.Rounds = 512, 6, 20
			cfg.EvalMode, cfg.MutationRate = mode, 0.5
			cfg.InitialStrategies = allTiedTable(512, 6, rng.New(9))
			m := mustModel(t, cfg)
			for step := 0; step <= 4; step++ {
				if step > 0 {
					if err := m.Step(); err != nil {
						t.Fatal(err)
					}
				}
				got := m.Sample()
				if want := stringSample(m); got != want {
					t.Fatalf("step %d:\n got %+v\nwant %+v", step, got, want)
				}
				if step == 0 && got.TopFraction != 1.0/512 {
					t.Fatalf("top fraction %v, want every strategy tied at 1/512", got.TopFraction)
				}
			}
		})
	}
}

// allTiedTable returns n distinct pure strategies of memory mem: a tiedPool
// of near-identical strategies, so ties are decided deep in the move
// table, filled up with random ones.
func allTiedTable(n, mem int, src *rng.Source) []strategy.Strategy {
	table := tiedPool(mem, 8, src)
	for len(table) < n {
		s := strategy.RandomPure(mem, src)
		dup := false
		for _, q := range table {
			dup = dup || q.Equal(s)
		}
		if !dup {
			table = append(table, s)
		}
	}
	return table
}

// TestRendersBeforeMatchesStrings checks the word-wise tie-break against
// comparing renderings over seeded pairs at memory 1, 2, 3 and 6, including
// tables that differ in a single state.
func TestRendersBeforeMatchesStrings(t *testing.T) {
	src := rng.New(5)
	for _, mem := range []int{1, 2, 3, 6} {
		pool := tiedPool(mem, 5, src) // memory one has only 5 such tables
		for i := 0; i < 8; i++ {
			pool = append(pool, strategy.RandomPure(mem, src))
		}
		for _, a := range pool {
			for _, b := range pool {
				if got, want := rendersBefore(a.(*strategy.Pure), b.(*strategy.Pure)), a.String() < b.String(); got != want {
					t.Fatalf("memory %d: rendersBefore(%v, %v) = %v, want %v", mem, a, b, got, want)
				}
			}
		}
	}
}

// BenchmarkSampleAllTied times Sample on an S=512 memory-six table whose
// every strategy ties at the top, the state of a fresh random population.
func BenchmarkSampleAllTied(b *testing.B) {
	cfg := baseConfig()
	cfg.NumSSets, cfg.MemorySteps = 512, 6
	cfg.InitialStrategies = allTiedTable(512, 6, rng.New(9))
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleSink = m.Sample()
	}
}

// sampleSink keeps BenchmarkSampleAllTied's calls from being optimised away.
var sampleSink AbundanceSample

func testSampleOracle(t *testing.T, mem int, mode fitness.EvalMode, seed uint64) {
	const n, ties = 20, 4
	src := rng.New(seed)
	pool := tiedPool(mem, 4, src)
	inPool := func(s strategy.Strategy) bool {
		for _, q := range pool {
			if q.Equal(s) {
				return true
			}
		}
		return false
	}
	initial := make([]strategy.Strategy, n)
	for i := range initial {
		if i < ties*len(pool) {
			// Every pool strategy held by the same number of SSets.
			initial[i] = pool[i%len(pool)].Clone()
			continue
		}
		var s strategy.Strategy
		if i%2 == 0 {
			s = strategy.WSLS(mem)
		}
		for s == nil || inPool(s) {
			s = strategy.RandomPure(mem, src)
		}
		initial[i] = s
	}
	cfg := baseConfig()
	cfg.NumSSets, cfg.MemorySteps, cfg.Rounds = n, mem, 20
	cfg.EvalMode, cfg.Seed = mode, seed
	cfg.InitialStrategies = initial
	cfg.MutationRate = 0.2
	m := mustModel(t, cfg)
	for step := 0; step <= 60; step++ {
		if step > 0 {
			if err := m.Step(); err != nil {
				t.Fatal(err)
			}
		}
		reg := registry(m)
		before := reg.Len()
		got := m.Sample()
		if reg.Len() != before {
			t.Fatalf("step %d: Sample interned: registry grew %d -> %d", step, before, reg.Len())
		}
		if want := stringSample(m); got != want {
			t.Fatalf("step %d:\n got %+v\nwant %+v", step, got, want)
		}
		if step == 0 && got.TopFraction != float64(ties)/n {
			t.Fatalf("initial top fraction %v, want the forced %d-way tie at %v", got.TopFraction, len(pool), float64(ties)/n)
		}
	}
}

// TestInitialStrategiesNotAliased modifies entries of InitialStrategies
// after New.  The model holds its own strategy values, so every eval mode
// must run exactly as a model built from the original values does.
func TestInitialStrategiesNotAliased(t *testing.T) {
	original := func() []strategy.Strategy {
		out := make([]strategy.Strategy, 8)
		for i := range out {
			if i%2 == 0 {
				out[i] = strategy.AllC(1)
			} else {
				out[i] = strategy.TFT(1)
			}
		}
		return out
	}
	for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached, fitness.EvalIncremental} {
		cfg := baseConfig()
		cfg.NumSSets, cfg.EvalMode, cfg.MutationRate = 8, mode, 0.1
		cfg.InitialStrategies = original()
		want, err := mustModel(t, cfg).Run(context.Background(), 200)
		if err != nil {
			t.Fatal(err)
		}

		cfg.InitialStrategies = original()
		m := mustModel(t, cfg)
		for _, s := range cfg.InitialStrategies {
			p := s.(*strategy.Pure)
			for st := 0; st < p.NumStates(); st++ {
				p.SetMove(st, game.Defect) // every entry becomes AllD
			}
		}
		got, err := m.Run(context.Background(), 200)
		if err != nil {
			t.Fatal(err)
		}
		assertSameDynamics(t, mode, want, got)
		if got.TotalGamesPlayed != want.TotalGamesPlayed {
			t.Fatalf("%v: %d games played, the unmodified run %d", mode, got.TotalGamesPlayed, want.TotalGamesPlayed)
		}
	}
}
