package sset

import (
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func newKernelEngine(t *testing.T, noise float64, kernel game.KernelMode) *game.Engine {
	t.Helper()
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      game.DefaultRounds,
		MemorySteps: 1,
		Noise:       noise,
		AccumMode:   game.AccumLookup,
		Kernel:      kernel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestFitnessNegativeWorkersRejected(t *testing.T) {
	eng := newKernelEngine(t, 0, game.KernelAuto)
	s, _ := New(0, 2, strategy.TFT(1))
	opponents := []strategy.Strategy{strategy.AllC(1)}
	if _, err := s.Fitness(eng, opponents, FitnessOptions{Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestFitnessBatchedMatchesScalarAcrossWorkers is the worker-count
// independence gate for the batched fitness path: with opponent pools that
// span several 64-lane chunks, every worker count (whose partitions slice
// the pool at arbitrary, non-chunk-aligned offsets) must reproduce the
// scalar full-replay total bit for bit, noiseless and noisy.
func TestFitnessBatchedMatchesScalarAcrossWorkers(t *testing.T) {
	for _, noise := range []float64{0, 0.05} {
		batchEng := newKernelEngine(t, noise, game.KernelBatch)
		scalarEng := newKernelEngine(t, noise, game.KernelFullReplay)
		src := rng.New(12)
		var opponents []strategy.Strategy
		for i := 0; i < 171; i++ { // 2 full chunks + ragged tail
			opponents = append(opponents, strategy.RandomPure(1, src))
		}
		s, _ := New(0, 4, strategy.WSLS(1))
		newSrc := func() *rng.Source {
			if noise > 0 {
				return rng.New(77)
			}
			return nil
		}
		want, err := s.Fitness(scalarEng, opponents, FitnessOptions{Workers: 1, Source: newSrc()})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16, 64} {
			got, err := s.Fitness(batchEng, opponents, FitnessOptions{Workers: workers, Source: newSrc()})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("noise=%v workers=%d: batched fitness %v, scalar %v", noise, workers, got, want)
			}
		}
		if stats := batchEng.KernelStats(); stats.BatchGames == 0 {
			t.Fatalf("noise=%v: batched engine never used the SWAR kernel: %+v", noise, stats)
		}
	}
}

// TestFitnessNoisySourcesMatchSplit: game i of a noisy Fitness call sees
// the i-th child the caller's Source would hand out through Split, so the
// value-type split array leaves every stream where it was.
func TestFitnessNoisySourcesMatchSplit(t *testing.T) {
	eng := newKernelEngine(t, 0.05, game.KernelAuto)
	src := rng.New(4)
	opponents := make([]strategy.Strategy, 130)
	for i := range opponents {
		opponents[i] = strategy.RandomPure(1, src)
	}
	focal := strategy.WSLS(1)
	parent := rng.New(21)
	want := 0.0
	for _, o := range opponents {
		res, err := eng.Play(focal, o, parent.Split())
		if err != nil {
			t.Fatal(err)
		}
		want += res.FitnessA
	}
	s, _ := New(0, 4, focal)
	caller := rng.New(21)
	got, err := s.Fitness(eng, opponents, FitnessOptions{Workers: 1, Source: caller})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("noisy Fitness = %v, per-game Split replay = %v", got, want)
	}
	if caller.State() != parent.State() {
		t.Fatal("Fitness advanced the caller's Source differently from one Split per opponent")
	}
}
