package population

import (
	"math"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// noisyPoolConfig is a noisy memory-one population drawn from four classic
// strategies, so every event meets repeated pairs and self-pairs.
func noisyPoolConfig(n int, seed uint64) Config {
	pool := []strategy.Strategy{strategy.WSLS(1), strategy.TFT(1), strategy.AllD(1), strategy.AllC(1)}
	initial := make([]strategy.Strategy, n)
	for i := range initial {
		initial[i] = pool[(i*i+i/3)%len(pool)]
	}
	initial[0], initial[1], initial[7] = strategy.WSLS(1), strategy.WSLS(1), strategy.WSLS(1)
	cfg := baseConfig()
	cfg.NumSSets = n
	cfg.Rounds = 200
	cfg.Noise = 0.05
	cfg.MutationRate = 0.3
	cfg.Seed = seed
	cfg.InitialStrategies = initial
	return cfg
}

// referencePair is the one-game-at-a-time evaluation the per-event pair
// cache reproduces: a map keyed by ID pair shared by both focal SSets, one
// Split per miss in neighbour order, and the forward then reverse fill at
// the first encounter.
func referencePair(t *testing.T, m *Model, a, b int) (float64, float64) {
	t.Helper()
	cache := map[[2]uint32]float64{}
	eval := func(i int) float64 {
		my, myID := m.table.Get(i), m.table.ID(i)
		total := 0.0
		for k := 0; k < m.graph.Degree(i); k++ {
			j := m.graph.Neighbor(i, k)
			oppID := m.table.ID(j)
			v, ok := cache[[2]uint32{myID, oppID}]
			if !ok {
				res, err := m.engine.Play(my, m.table.Get(j), m.src.Split())
				if err != nil {
					t.Fatal(err)
				}
				m.games++
				v = res.FitnessA
				cache[[2]uint32{myID, oppID}] = v
				cache[[2]uint32{oppID, myID}] = res.FitnessB
			}
			total += v
		}
		return total
	}
	fa := eval(a)
	return fa, eval(b)
}

// TestPairRowsSelfPair: teacher and learner hold the same strategy, which
// other SSets hold too, so the noisy self-pair's FitnessB overwrite decides
// the sums.  The pinned values are those of the map-based per-event cache
// the rows replaced.
func TestPairRowsSelfPair(t *testing.T) {
	cfg := noisyPoolConfig(24, 2013)
	m := mustModel(t, cfg)
	fa, fb, err := m.fitnessPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fa != 9189 || fb != 9209 || m.games != 4 {
		t.Fatalf("self-pair event: fitness (%v, %v) after %d games, want (9189, 9209) after 4", fa, fb, m.games)
	}
	want := [4]uint64{0xf4f26c5a9b494ab1, 0xca62a252480667a5, 0xd8f0f6e48e3a7f60, 0xdc647e82e448a073}
	if m.src.State() != want {
		t.Fatalf("game stream state %#x after the event, want %#x", m.src.State(), want)
	}
	ref := mustModel(t, cfg)
	ra, rb := referencePair(t, ref, 0, 1)
	if ra != fa || rb != fb {
		t.Fatalf("one-game-at-a-time reference gives (%v, %v), pair rows (%v, %v)", ra, rb, fa, fb)
	}
}

// TestPairRowsMatchOneGameAtATime drives many consecutive events — rows
// reused across events, strategies changing under mutation, focal pairs
// with equal and distinct strategies — and holds every fitness pair and the
// game stream to the reference.
func TestPairRowsMatchOneGameAtATime(t *testing.T) {
	cfg := noisyPoolConfig(40, 7)
	m, ref := mustModel(t, cfg), mustModel(t, cfg)
	pick := rng.New(99)
	for ev := 0; ev < 200; ev++ {
		a, b, err := pick.Pair(cfg.NumSSets)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb, err := m.fitnessPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := referencePair(t, ref, a, b)
		if fa != ra || fb != rb {
			t.Fatalf("event %d (%d, %d): pair rows (%v, %v), reference (%v, %v)", ev, a, b, fa, fb, ra, rb)
		}
		if m.src.State() != ref.src.State() || m.games != ref.games {
			t.Fatalf("event %d: game streams or game counts diverged", ev)
		}
		// Mutate one SSet in both models so the registry grows and the
		// rows must follow new IDs.
		s := strategy.RandomPure(1, pick)
		idx := pick.Intn(cfg.NumSSets)
		if err := m.applyStrategyChange(idx, s); err != nil {
			t.Fatal(err)
		}
		if err := ref.applyStrategyChange(idx, s.Clone()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPairRowsEpochWraparound forces the row epoch to the end of its range
// right after an event stamped the rows at the first epoch, so the wrapped
// epoch reuses that stamp: without clearing, the next event would read the
// previous event's payoffs as its own.  Every event must stay identical to
// an untouched model's.
func TestPairRowsEpochWraparound(t *testing.T) {
	cfg := noisyPoolConfig(32, 11)
	wrapped, fresh := mustModel(t, cfg), mustModel(t, cfg)
	pick := rng.New(5)
	for ev := 0; ev < 40; ev++ {
		a, b, err := pick.Pair(cfg.NumSSets)
		if err != nil {
			t.Fatal(err)
		}
		wa, wb, err := wrapped.fitnessPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		fa, fb, err := fresh.fitnessPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if wa != fa || wb != fb || wrapped.src.State() != fresh.src.State() {
			t.Fatalf("event %d (%d, %d): wrapped model (%v, %v), fresh model (%v, %v)", ev, a, b, wa, wb, fa, fb)
		}
		if ev == 0 {
			wrapped.pairs.epoch = math.MaxUint32 - 1
		}
	}
	if wrapped.pairs.epoch > 1000 {
		t.Fatalf("epoch %d never wrapped", wrapped.pairs.epoch)
	}
}

// BenchmarkFitnessPairNoisy times one pairwise-comparison event in the
// Figure 2 shape: S=512 random memory-one SSets, 200 rounds, noise 0.05, on
// the EvalFull path.  Each event plays the pairs missing from both focal
// SSets' rows in one batch.
func BenchmarkFitnessPairNoisy(b *testing.B) {
	cfg := baseConfig()
	cfg.NumSSets = 512
	cfg.Rounds = 200
	cfg.Noise = 0.05
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pick := rng.New(2013)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		teacher, learner, err := pick.Pair(cfg.NumSSets)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.fitnessPair(teacher, learner); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.games)/float64(b.N), "games/op")
}

// BenchmarkFitnessPairNoisyConverged is BenchmarkFitnessPairNoisy in the
// late-run Figure 2 state: 90% of the SSets hold WSLS and the rest random
// memory-one strategies, so an event meets few distinct strategies among
// many SSets and plays few games.
func BenchmarkFitnessPairNoisyConverged(b *testing.B) {
	cfg := baseConfig()
	cfg.NumSSets = 512
	cfg.Rounds = 200
	cfg.Noise = 0.05
	src := rng.New(2013)
	cfg.InitialStrategies = make([]strategy.Strategy, cfg.NumSSets)
	for i := range cfg.InitialStrategies {
		if src.Float64() < 0.9 {
			cfg.InitialStrategies[i] = strategy.WSLS(1)
		} else {
			cfg.InitialStrategies[i] = strategy.RandomPure(1, src)
		}
	}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		teacher, learner, err := src.Pair(cfg.NumSSets)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := m.fitnessPair(teacher, learner); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.games)/float64(b.N), "games/op")
}
