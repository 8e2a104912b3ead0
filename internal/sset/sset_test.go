package sset

import (
	"testing"
	"testing/quick"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func newEngine(t *testing.T, mem int, noise float64) *game.Engine {
	t.Helper()
	e, err := game.NewEngine(game.EngineConfig{Rounds: 50, MemorySteps: mem, Noise: noise})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPartitionOpponentsEven(t *testing.T) {
	agents := PartitionOpponents(12, 4)
	if len(agents) != 4 {
		t.Fatalf("got %d agents", len(agents))
	}
	for i, a := range agents {
		if a.Index != i {
			t.Fatalf("agent %d has index %d", i, a.Index)
		}
		if a.Games() != 3 {
			t.Fatalf("agent %d has %d games, want 3", i, a.Games())
		}
	}
}

func TestPartitionOpponentsUneven(t *testing.T) {
	agents := PartitionOpponents(10, 4)
	sizes := []int{3, 3, 2, 2}
	total := 0
	prevHi := 0
	for i, a := range agents {
		if a.Games() != sizes[i] {
			t.Fatalf("agent %d has %d games, want %d", i, a.Games(), sizes[i])
		}
		if a.Lo != prevHi {
			t.Fatalf("agent %d range does not start where the previous ended", i)
		}
		prevHi = a.Hi
		total += a.Games()
	}
	if total != 10 {
		t.Fatalf("partition covers %d games, want 10", total)
	}
}

func TestPartitionOpponentsMoreAgentsThanGames(t *testing.T) {
	agents := PartitionOpponents(2, 5)
	total := 0
	for _, a := range agents {
		if a.Games() < 0 || a.Games() > 1 {
			t.Fatalf("agent %d has %d games", a.Index, a.Games())
		}
		total += a.Games()
	}
	if total != 2 {
		t.Fatalf("partition covers %d games, want 2", total)
	}
}

func TestPartitionOpponentsZeroGames(t *testing.T) {
	for _, a := range PartitionOpponents(0, 3) {
		if a.Games() != 0 {
			t.Fatal("zero opponents should give zero games per agent")
		}
	}
}

func TestPartitionOpponentsPanics(t *testing.T) {
	cases := []func(){
		func() { PartitionOpponents(5, 0) },
		func() { PartitionOpponents(5, -1) },
		func() { PartitionOpponents(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, strategy.AllC(1)); err == nil {
		t.Fatal("accepted zero agents")
	}
	if _, err := New(0, 4, nil); err == nil {
		t.Fatal("accepted nil strategy")
	}
	if _, err := New(-1, 4, strategy.AllC(1)); err == nil {
		t.Fatal("accepted negative id")
	}
	s, err := New(3, 4, strategy.WSLS(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() != 3 || s.numAgents != 4 {
		t.Fatal("accessors do not reflect construction")
	}
	if s.strat.String() != strategy.WSLS(1).String() {
		t.Fatal("strategy accessor wrong")
	}
}

func TestSetStrategy(t *testing.T) {
	s, _ := New(0, 2, strategy.AllC(1))
	if err := s.SetStrategy(nil); err == nil {
		t.Fatal("SetStrategy accepted nil")
	}
	if err := s.SetStrategy(strategy.AllD(1)); err != nil {
		t.Fatal(err)
	}
	if s.strat.String() != "1111" {
		t.Fatal("SetStrategy did not replace the strategy")
	}
}

func TestAgentsPartition(t *testing.T) {
	s, _ := New(0, 4, strategy.AllC(1))
	agents := PartitionOpponents(9, s.numAgents)
	if len(agents) != 4 {
		t.Fatalf("got %d agents", len(agents))
	}
	total := 0
	for _, a := range agents {
		total += a.Games()
	}
	if total != 9 {
		t.Fatalf("agents cover %d games, want 9", total)
	}
}

func TestFitnessDeterministicKnownValues(t *testing.T) {
	// AllD against [AllC, AllD]: 50 rounds.
	//   vs AllC: T every round = 200; vs AllD: P every round = 50.  Total 250.
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 3, strategy.AllD(1))
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1)}
	fit, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 250 {
		t.Fatalf("AllD fitness = %v, want 250", fit)
	}

	// AllC against the same opponents: R*50 + S*50 = 150.
	c, _ := New(1, 3, strategy.AllC(1))
	fit, err = c.Fitness(eng, opponents, FitnessOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 150 {
		t.Fatalf("AllC fitness = %v, want 150", fit)
	}
}

func TestFitnessEmptyOpponents(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	fit, err := s.Fitness(eng, nil, FitnessOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if fit != 0 {
		t.Fatalf("fitness with no opponents = %v", fit)
	}
}

func TestFitnessNilEngine(t *testing.T) {
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(nil, []strategy.Strategy{strategy.AllC(1)}, FitnessOptions{}); err == nil {
		t.Fatal("accepted nil engine")
	}
}

func TestFitnessNilOpponent(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(eng, []strategy.Strategy{nil}, FitnessOptions{Workers: 1}); err == nil {
		t.Fatal("accepted nil opponent (serial path)")
	}
	opps := []strategy.Strategy{strategy.AllC(1), nil, strategy.AllC(1), strategy.AllC(1)}
	if _, err := s.Fitness(eng, opps, FitnessOptions{Workers: 2}); err == nil {
		t.Fatal("accepted nil opponent (parallel path)")
	}
}

func TestFitnessRequiresSourceWhenNoisy(t *testing.T) {
	eng := newEngine(t, 1, 0.1)
	s, _ := New(0, 2, strategy.TFT(1))
	if _, err := s.Fitness(eng, []strategy.Strategy{strategy.AllC(1)}, FitnessOptions{}); err == nil {
		t.Fatal("noisy fitness accepted a nil source")
	}
}

func TestFitnessRequiresSourceWhenMixedOpponent(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	gtft, _ := strategy.GTFT(1, 0.3)
	if _, err := s.Fitness(eng, []strategy.Strategy{gtft}, FitnessOptions{}); err == nil {
		t.Fatal("fitness against a mixed opponent accepted a nil source")
	}
}

func TestFitnessWorkerCountDoesNotChangeResult(t *testing.T) {
	// With a non-integer payoff matrix float addition is not associative, so
	// only a sum taken in opponent order is independent of the partition.
	fractional, err := game.Generic().WithPayoff(game.Matrix{Reward: 3, Sucker: 0.1, Temptation: 4.1, Punishment: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		cfg       game.EngineConfig
		opponents int
		focals    int
	}{
		{"standard", game.EngineConfig{Rounds: 50, MemorySteps: 1}, 37, 1},
		{"fractional", game.EngineConfig{Game: fractional, Rounds: 50, MemorySteps: 2}, 511, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := game.NewEngine(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem := tc.cfg.MemorySteps
			src := rng.New(7)
			var opponents []strategy.Strategy
			for i := 0; i < tc.opponents; i++ {
				opponents = append(opponents, strategy.RandomPure(mem, src))
			}
			for f := 0; f < tc.focals; f++ {
				focal := strategy.WSLS(mem)
				if f > 0 {
					focal = strategy.RandomPure(mem, src)
				}
				s, _ := New(0, 8, focal)
				want, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 4, 8, 64} {
					got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("focal %d: workers=%d fitness %v differs from serial %v", f, workers, got, want)
					}
				}
			}
		})
	}
}

func TestFitnessNoisyDeterministicAcrossWorkerCounts(t *testing.T) {
	eng := newEngine(t, 1, 0.05)
	var opponents []strategy.Strategy
	src := rng.New(3)
	for i := 0; i < 21; i++ {
		opponents = append(opponents, strategy.RandomPure(1, src))
	}
	s, _ := New(0, 4, strategy.WSLS(1))
	want, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1, Source: rng.New(42)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: workers, Source: rng.New(42)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("noisy fitness with workers=%d is %v, want %v (same seed)", workers, got, want)
		}
	}
}

func TestFitnessDefaultWorkers(t *testing.T) {
	eng := newEngine(t, 1, 0)
	s, _ := New(0, 2, strategy.TFT(1))
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1)}
	if _, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 0}); err != nil {
		t.Fatal(err)
	}
}

// Property: any partition covers every opponent exactly once, in order, with
// sizes differing by at most one.
func TestQuickPartitionCoversAll(t *testing.T) {
	f := func(oppSel, agentSel uint16) bool {
		numOpp := int(oppSel % 2000)
		numAgents := int(agentSel%200) + 1
		agents := PartitionOpponents(numOpp, numAgents)
		if len(agents) != numAgents {
			return false
		}
		prevHi := 0
		minSize, maxSize := 1<<30, 0
		for _, a := range agents {
			if a.Lo != prevHi || a.Games() < 0 {
				return false
			}
			prevHi = a.Hi
			if a.Games() < minSize {
				minSize = a.Games()
			}
			if a.Games() > maxSize {
				maxSize = a.Games()
			}
		}
		return prevHi == numOpp && maxSize-minSize <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFitness64OpponentsMemorySix(b *testing.B) {
	eng, _ := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 6})
	src := rng.New(1)
	var opponents []strategy.Strategy
	for i := 0; i < 64; i++ {
		opponents = append(opponents, strategy.RandomPure(6, src))
	}
	s, _ := New(0, 4, strategy.RandomPure(6, src))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
