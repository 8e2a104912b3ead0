package fitness

import (
	"testing"
	"testing/quick"

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

func TestPartitionOpponentsEven(t *testing.T) {
	ranges := partitionOpponents(12, 4)
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	for i, r := range ranges {
		if r.hi-r.lo != 3 {
			t.Fatalf("worker %d has %d games, want 3", i, r.hi-r.lo)
		}
	}
}

func TestPartitionOpponentsUneven(t *testing.T) {
	sizes := []int{3, 3, 2, 2}
	prevHi := 0
	for i, r := range partitionOpponents(10, 4) {
		if r.hi-r.lo != sizes[i] {
			t.Fatalf("worker %d has %d games, want %d", i, r.hi-r.lo, sizes[i])
		}
		if r.lo != prevHi {
			t.Fatalf("worker %d range does not start where the previous ended", i)
		}
		prevHi = r.hi
	}
	if prevHi != 10 {
		t.Fatalf("partition covers %d games, want 10", prevHi)
	}
}

func TestPartitionOpponentsMoreAgentsThanGames(t *testing.T) {
	total := 0
	for i, r := range partitionOpponents(2, 5) {
		if n := r.hi - r.lo; n < 0 || n > 1 {
			t.Fatalf("worker %d has %d games", i, n)
		}
		total += r.hi - r.lo
	}
	if total != 2 {
		t.Fatalf("partition covers %d games, want 2", total)
	}
}

func TestPartitionOpponentsZeroGames(t *testing.T) {
	for _, r := range partitionOpponents(0, 3) {
		if r.hi != r.lo {
			t.Fatal("zero opponents should give zero games per worker")
		}
	}
}

func TestPartitionOpponentsPanics(t *testing.T) {
	cases := []func(){
		func() { partitionOpponents(5, 0) },
		func() { partitionOpponents(5, -1) },
		func() { partitionOpponents(-1, 2) },
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

func TestPartitionOpponentsNineAcrossFour(t *testing.T) {
	ranges := partitionOpponents(9, 4)
	if len(ranges) != 4 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	total := 0
	for _, r := range ranges {
		total += r.hi - r.lo
	}
	if total != 9 {
		t.Fatalf("ranges cover %d games, want 9", total)
	}
}

// Property: any partition covers every opponent exactly once, in order, with
// sizes differing by at most one.
func TestQuickPartitionCoversAll(t *testing.T) {
	f := func(oppSel, workerSel uint16) bool {
		numOpp := int(oppSel % 2000)
		numWorkers := int(workerSel%200) + 1
		ranges := partitionOpponents(numOpp, numWorkers)
		if len(ranges) != numWorkers {
			return false
		}
		prevHi := 0
		minSize, maxSize := 1<<30, 0
		for _, r := range ranges {
			size := r.hi - r.lo
			if r.lo != prevHi || size < 0 {
				return false
			}
			prevHi = r.hi
			minSize, maxSize = min(minSize, size), max(maxSize, size)
		}
		return prevHi == numOpp && maxSize-minSize <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlayAllKnownValues(t *testing.T) {
	// AllD against [AllC, AllD]: 50 rounds.
	//   vs AllC: T every round = 200; vs AllD: P every round = 50.  Total 250.
	eng := newEngine(t, 0)
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1)}
	fit, err := PlayAll(eng, strategy.AllD(1), opponents, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 250 {
		t.Fatalf("AllD fitness = %v, want 250", fit)
	}

	// AllC against the same opponents: R*50 + S*50 = 150.
	fit, err = PlayAll(eng, strategy.AllC(1), opponents, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 150 {
		t.Fatalf("AllC fitness = %v, want 150", fit)
	}
}

func TestPlayAllEmptyOpponents(t *testing.T) {
	fit, err := PlayAll(newEngine(t, 0), strategy.TFT(1), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 0 {
		t.Fatalf("fitness with no opponents = %v", fit)
	}
}

func TestPlayAllNilEngine(t *testing.T) {
	if _, err := PlayAll(nil, strategy.TFT(1), []strategy.Strategy{strategy.AllC(1)}, 0, nil); err == nil {
		t.Fatal("accepted nil engine")
	}
	if _, err := PlayAll(newEngine(t, 0), nil, []strategy.Strategy{strategy.AllC(1)}, 0, nil); err == nil {
		t.Fatal("accepted nil focal strategy")
	}
}

func TestPlayAllNegativeWorkersRejected(t *testing.T) {
	eng := newKernelEngine(t, 0, game.KernelAuto)
	if _, err := PlayAll(eng, strategy.TFT(1), []strategy.Strategy{strategy.AllC(1)}, -1, nil); err == nil {
		t.Fatal("negative workers accepted")
	}
}

func TestPlayAllNilOpponent(t *testing.T) {
	eng := newEngine(t, 0)
	if _, err := PlayAll(eng, strategy.TFT(1), []strategy.Strategy{nil}, 1, nil); err == nil {
		t.Fatal("accepted nil opponent (serial path)")
	}
	opps := []strategy.Strategy{strategy.AllC(1), nil, strategy.AllC(1), strategy.AllC(1)}
	if _, err := PlayAll(eng, strategy.TFT(1), opps, 2, nil); err == nil {
		t.Fatal("accepted nil opponent (parallel path)")
	}
}

func TestPlayAllRequiresSourceWhenNoisy(t *testing.T) {
	if _, err := PlayAll(newEngine(t, 0.1), strategy.TFT(1), []strategy.Strategy{strategy.AllC(1)}, 0, nil); err == nil {
		t.Fatal("noisy fitness accepted a nil source")
	}
}

func TestPlayAllDefaultWorkers(t *testing.T) {
	opponents := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1)}
	if _, err := PlayAll(newEngine(t, 0), strategy.TFT(1), opponents, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlayAllWorkerCountDoesNotChangeResult(t *testing.T) {
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
				want, err := PlayAll(eng, focal, opponents, 1, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{2, 3, 4, 8, 64} {
					got, err := PlayAll(eng, focal, opponents, workers, nil)
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

func TestPlayAllNoisyDeterministicAcrossWorkerCounts(t *testing.T) {
	eng := newEngine(t, 0.05)
	var opponents []strategy.Strategy
	src := rng.New(3)
	for i := 0; i < 21; i++ {
		opponents = append(opponents, strategy.RandomPure(1, src))
	}
	want, err := PlayAll(eng, strategy.WSLS(1), opponents, 1, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, err := PlayAll(eng, strategy.WSLS(1), opponents, workers, rng.New(42))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("noisy fitness with workers=%d is %v, want %v (same seed)", workers, got, want)
		}
	}
}

// TestPlayAllBatchedMatchesScalarAcrossWorkers is the worker-count
// independence gate for the batched fitness path: with opponent pools that
// span several 64-lane chunks, every worker count (whose partitions slice
// the pool at arbitrary, non-chunk-aligned offsets) must reproduce the
// scalar full-replay total bit for bit, noiseless and noisy.
func TestPlayAllBatchedMatchesScalarAcrossWorkers(t *testing.T) {
	for _, noise := range []float64{0, 0.05} {
		batchEng := newKernelEngine(t, noise, game.KernelBatch)
		scalarEng := newKernelEngine(t, noise, game.KernelFullReplay)
		src := rng.New(12)
		var opponents []strategy.Strategy
		for i := 0; i < 171; i++ { // 2 full chunks + ragged tail
			opponents = append(opponents, strategy.RandomPure(1, src))
		}
		newSrc := func() *rng.Source {
			if noise > 0 {
				return rng.New(77)
			}
			return nil
		}
		want, err := PlayAll(scalarEng, strategy.WSLS(1), opponents, 1, newSrc())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16, 64} {
			got, err := PlayAll(batchEng, strategy.WSLS(1), opponents, workers, newSrc())
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

// TestPlayAllNoisySourcesMatchSplit: game i of a noisy PlayAll call sees
// the i-th child the caller's source would hand out through Split, so the
// value-type split array leaves every stream where it was.
func TestPlayAllNoisySourcesMatchSplit(t *testing.T) {
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
	caller := rng.New(21)
	got, err := PlayAll(eng, focal, opponents, 1, caller)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("noisy PlayAll = %v, per-game Split replay = %v", got, want)
	}
	if caller.State() != parent.State() {
		t.Fatal("PlayAll advanced the caller's source differently from one Split per opponent")
	}
}

func BenchmarkPlayAll64OpponentsMemorySix(b *testing.B) {
	eng, _ := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: 6})
	src := rng.New(1)
	var opponents []strategy.Strategy
	for i := 0; i < 64; i++ {
		opponents = append(opponents, strategy.RandomPure(6, src))
	}
	focal := strategy.RandomPure(6, src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlayAll(eng, focal, opponents, 4, nil); err != nil {
			b.Fatal(err)
		}
	}
}
