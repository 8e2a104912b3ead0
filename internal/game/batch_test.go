package game

import (
	"fmt"
	"testing"

	"evogame/internal/rng"
)

func wordPlayerFromBits(mem int, bits uint64) *wordPlayer {
	p := newWordPlayer(mem)
	p.words[0] = bits
	return p
}

func newTestEngines(t *testing.T, mem int, noise float64) (batch, scalar *Engine) {
	t.Helper()
	mk := func(k KernelMode) *Engine {
		e, err := NewEngine(EngineConfig{
			Rounds: DefaultRounds, MemorySteps: mem, Noise: noise,
			AccumMode: AccumLookup, Kernel: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return mk(KernelBatch), mk(KernelFullReplay)
}

func checkBatchMatchesScalar(t *testing.T, batch, scalar *Engine, a Player, opps []Player, seed uint64) {
	t.Helper()
	noisy := scalar.Noise() > 0
	var batchSrcs []*rng.Source
	if noisy {
		batchSrcs = make([]*rng.Source, len(opps))
		for i := range batchSrcs {
			batchSrcs[i] = rng.New(seed + uint64(i))
		}
	}
	got := make([]Result, len(opps))
	if err := batch.PlayBatch(a, opps, batchSrcs, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range opps {
		var src *rng.Source
		if noisy {
			src = rng.New(seed + uint64(i))
		}
		want, err := scalar.Play(a, b, src)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("opponent %d: batch %+v, scalar full replay %+v", i, got[i], want)
		}
		// The batch kernel must also leave each game's RNG stream exactly
		// where the scalar loop does.
		if src != nil {
			if g, w := batchSrcs[i].Uint64(), src.Uint64(); g != w {
				t.Fatalf("opponent %d: RNG stream diverged after the game (%#x vs %#x)", i, g, w)
			}
		}
	}
}

// TestPlayBatchExhaustiveMemoryOne pins batch-vs-scalar equivalence for
// every ordered pair of the 16 memory-one pure strategies, the paper's core
// strategy space.
func TestPlayBatchExhaustiveMemoryOne(t *testing.T) {
	batch, scalar := newTestEngines(t, 1, 0)
	opps := make([]Player, 16)
	for b := 0; b < 16; b++ {
		opps[b] = wordPlayerFromBits(1, uint64(b))
	}
	for a := 0; a < 16; a++ {
		checkBatchMatchesScalar(t, batch, scalar, wordPlayerFromBits(1, uint64(a)), opps, 0)
	}
}

// TestPlayBatchRandomDeeperMemory spot-checks equivalence with random move
// tables at memory 2..4, noiseless and noisy.  KernelBatch forces the SWAR
// path even at memory-4, where KernelAuto would prefer the scalar loop.
func TestPlayBatchRandomDeeperMemory(t *testing.T) {
	for mem := 2; mem <= 4; mem++ {
		for _, noise := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("mem%d-noise%v", mem, noise), func(t *testing.T) {
				batch, scalar := newTestEngines(t, mem, noise)
				src := rng.New(uint64(90 + mem))
				opps := make([]Player, 80) // > one chunk, ragged second chunk
				for i := range opps {
					opps[i] = randomWordPlayer(mem, src)
				}
				for trial := 0; trial < 4; trial++ {
					focal := randomWordPlayer(mem, src)
					checkBatchMatchesScalar(t, batch, scalar, focal, opps, uint64(1000*mem+trial))
				}
			})
		}
	}
}

// TestPlayBatchRaggedTail covers opponent counts that do not fill whole
// 64-lane chunks.
func TestPlayBatchRaggedTail(t *testing.T) {
	batch, scalar := newTestEngines(t, 1, 0)
	src := rng.New(17)
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		opps := make([]Player, n)
		for i := range opps {
			opps[i] = randomWordPlayer(1, src)
		}
		checkBatchMatchesScalar(t, batch, scalar, randomWordPlayer(1, src), opps, 5)
	}
}

// TestPlayBatchKernelRouting pins which kernel each mode uses, via the
// engine's kernel-mix counters.
func TestPlayBatchKernelRouting(t *testing.T) {
	mkEngine := func(mem int, k KernelMode) *Engine {
		e, err := NewEngine(EngineConfig{
			Rounds: DefaultRounds, MemorySteps: mem, AccumMode: AccumLookup, Kernel: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	src := rng.New(3)
	play := func(e *Engine, mem int) KernelStats {
		opps := make([]Player, 10)
		for i := range opps {
			opps[i] = randomWordPlayer(mem, src)
		}
		out := make([]Result, len(opps))
		if err := e.PlayBatch(randomWordPlayer(mem, src), opps, nil, out); err != nil {
			t.Fatal(err)
		}
		return e.KernelStats()
	}

	if s := play(mkEngine(1, KernelFullReplay), 1); s.BatchCalls != 0 || s.CycleGames != 0 || s.ScalarGames != 10 {
		t.Fatalf("full-replay mode used a fast path: %+v", s)
	}
	if s := play(mkEngine(1, KernelAuto), 1); s.BatchGames != 10 || s.BatchCalls != 1 {
		t.Fatalf("auto mode at memory-1 did not batch: %+v", s)
	}
	// Memory 4 under auto never takes the SWAR batch; its games close their
	// cycle, run to the end, or finish on the gather lanes where the CPU has
	// them.
	if s := play(mkEngine(4, KernelAuto), 4); s.BatchCalls != 0 || s.CycleGames+s.ScalarGames+s.VectorGames != 10 {
		t.Fatalf("auto mode at memory-4 batched anyway: %+v", s)
	}
	if s := play(mkEngine(4, KernelBatch), 4); s.BatchGames != 10 || s.BatchCalls != 1 {
		t.Fatalf("batch mode at memory-4 did not batch: %+v", s)
	}
	occ := KernelStats{BatchGames: 10, BatchCalls: 1}.BatchLaneOccupancy()
	if occ != 10.0/64 {
		t.Fatalf("BatchLaneOccupancy = %v, want %v", occ, 10.0/64)
	}
}

func TestPlayBatchValidation(t *testing.T) {
	batch, _ := newTestEngines(t, 1, 0)
	opps := []Player{randomWordPlayer(1, rng.New(1))}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, nil, make([]Result, 2)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, make([]*rng.Source, 2), make([]Result, 1)); err == nil {
		t.Fatal("mismatched srcs length accepted")
	}
	if err := batch.PlayBatch(nil, opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil focal player accepted")
	}
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), []Player{nil}, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil opponent accepted")
	}
	noisy, _ := newTestEngines(t, 1, 0.05)
	if err := noisy.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("noisy batch without sources accepted")
	}
	if err := noisy.PlayBatch(randomWordPlayer(1, rng.New(2)), opps, make([]*rng.Source, 1), make([]Result, 1)); err == nil {
		t.Fatal("noisy batch with a nil per-game source accepted")
	}
	mismatched := randomWordPlayer(2, rng.New(3))
	if err := batch.PlayBatch(randomWordPlayer(1, rng.New(2)), []Player{mismatched}, nil, make([]Result, 1)); err == nil {
		t.Fatal("opponent with mismatched memory accepted")
	}
	if err := batch.PlayBatch(mismatched, opps, nil, make([]Result, 1)); err == nil {
		t.Fatal("focal player with mismatched memory accepted")
	}
}

// TestPlayBatchSteadyStateZeroAllocs is the alloc gate on the batch hot
// paths: once the engine's buffer pools are warm, a full-occupancy
// noiseless batch must not allocate, on the SWAR kernel at memory one and
// on the gather lanes (where the CPU has them) at memory six.
func TestPlayBatchSteadyStateZeroAllocs(t *testing.T) {
	swar, _ := newTestEngines(t, 1, 0)
	for _, tc := range []struct {
		e   *Engine
		mem int
	}{{swar, 1}, {mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 6}), 6}} {
		src := rng.New(11)
		opps := make([]Player, BatchLanes)
		for i := range opps {
			opps[i] = randomWordPlayer(tc.mem, src)
		}
		focal := randomWordPlayer(tc.mem, src)
		out := make([]Result, len(opps))
		if err := tc.e.PlayBatch(focal, opps, nil, out); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.e.PlayBatch(focal, opps, nil, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 && !raceEnabled {
			t.Fatalf("memory-%d steady-state PlayBatch allocates %v times per call, want 0", tc.mem, allocs)
		}
		if s := tc.e.KernelStats(); tc.mem == 6 && walkLanesUsable && s.VectorGames == 0 {
			t.Fatalf("memory-six batch never reached the gather lanes: %+v", s)
		}
	}
}

// TestPlayPairsExhaustiveMemoryOne gives every lane its own focal player:
// all 256 ordered pairs of the 16 memory-one pure strategies in one call
// (four full chunks), shuffled so neighbouring lanes hold unrelated focal
// tables.  Each game must equal a scalar full replay, noiseless and noisy,
// and leave its source exactly where the scalar loop does.
func TestPlayPairsExhaustiveMemoryOne(t *testing.T) {
	for _, noise := range []float64{0, 0.05} {
		t.Run(fmt.Sprintf("noise%v", noise), func(t *testing.T) {
			batch, scalar := newTestEngines(t, 1, noise)
			var as, bs []Player
			for a := 0; a < 16; a++ {
				for b := 0; b < 16; b++ {
					as = append(as, wordPlayerFromBits(1, uint64(a)))
					bs = append(bs, wordPlayerFromBits(1, uint64(b)))
				}
			}
			shuffle := rng.New(8)
			for i := len(as) - 1; i > 0; i-- {
				j := shuffle.Intn(i + 1)
				as[i], as[j] = as[j], as[i]
				bs[i], bs[j] = bs[j], bs[i]
			}
			var srcs []*rng.Source
			if noise > 0 {
				srcs = make([]*rng.Source, len(as))
				for i := range srcs {
					srcs[i] = rng.New(uint64(500 + i))
				}
			}
			got := make([]Result, len(as))
			if err := batch.PlayPairs(as, bs, srcs, got); err != nil {
				t.Fatal(err)
			}
			for i := range as {
				var src *rng.Source
				if noise > 0 {
					src = rng.New(uint64(500 + i))
				}
				want, err := scalar.Play(as[i], bs[i], src)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Fatalf("pair %d: batch %+v, scalar full replay %+v", i, got[i], want)
				}
				if src != nil && srcs[i].State() != src.State() {
					t.Fatalf("pair %d: source left at %#x, scalar loop at %#x", i, srcs[i].State(), src.State())
				}
			}
			if s := batch.KernelStats(); s.BatchCalls != 4 || s.BatchGames != 256 {
				t.Fatalf("256 eligible pairs took %d batches of %d games, want 4 of 256", s.BatchCalls, s.BatchGames)
			}
		})
	}
}

// TestPlayPairsRandomDeeperMemory runs the general round loop with a
// different random focal per lane at memory 2..4, noiseless and noisy, over
// a ragged second chunk.
func TestPlayPairsRandomDeeperMemory(t *testing.T) {
	for mem := 2; mem <= 4; mem++ {
		for _, noise := range []float64{0, 0.05} {
			t.Run(fmt.Sprintf("mem%d-noise%v", mem, noise), func(t *testing.T) {
				batch, scalar := newTestEngines(t, mem, noise)
				src := rng.New(uint64(70 + mem))
				as, bs := make([]Player, 90), make([]Player, 90)
				srcs := make([]*rng.Source, len(as))
				for i := range as {
					as[i], bs[i] = randomWordPlayer(mem, src), randomWordPlayer(mem, src)
					srcs[i] = rng.New(uint64(900 + i))
				}
				got := make([]Result, len(as))
				if err := batch.PlayPairs(as, bs, srcs, got); err != nil {
					t.Fatal(err)
				}
				for i := range as {
					src := rng.New(uint64(900 + i))
					want, err := scalar.Play(as[i], bs[i], src)
					if err != nil {
						t.Fatal(err)
					}
					if got[i] != want || srcs[i].State() != src.State() {
						t.Fatalf("pair %d: batch %+v, scalar full replay %+v", i, got[i], want)
					}
				}
			})
		}
	}
}

// TestPlayPairsSharedSourceMatchesSequentialPlay backs every lane with one
// *rng.Source.  PlayPairs promises sequential Play's results, so each lane
// must draw its flips only after the lane before it has finished, and the
// shared source must end where twenty sequential games leave it.
func TestPlayPairsSharedSourceMatchesSequentialPlay(t *testing.T) {
	batch, scalar := newTestEngines(t, 1, 0.05)
	players := rng.New(21)
	as, bs := make([]Player, 20), make([]Player, 20)
	shared := rng.New(2013)
	srcs := make([]*rng.Source, len(as))
	for i := range as {
		as[i], bs[i] = randomWordPlayer(1, players), randomWordPlayer(1, players)
		srcs[i] = shared
	}
	got := make([]Result, len(as))
	if err := batch.PlayPairs(as, bs, srcs, got); err != nil {
		t.Fatal(err)
	}
	seq := rng.New(2013)
	for i := range as {
		want, err := scalar.Play(as[i], bs[i], seq)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("pair %d: batch %+v, sequential Play %+v", i, got[i], want)
		}
	}
	if shared.State() != seq.State() {
		t.Fatalf("shared source left at %#x, sequential Play at %#x", shared.State(), seq.State())
	}
}

func TestPlayPairsValidation(t *testing.T) {
	batch, _ := newTestEngines(t, 1, 0)
	p := randomWordPlayer(1, rng.New(1))
	if err := batch.PlayPairs([]Player{p}, []Player{p, p}, nil, make([]Result, 2)); err == nil {
		t.Fatal("mismatched focal and opponent counts accepted")
	}
	if err := batch.PlayPairs([]Player{p}, []Player{p}, nil, make([]Result, 2)); err == nil {
		t.Fatal("mismatched out length accepted")
	}
	if err := batch.PlayPairs([]Player{p}, []Player{p}, make([]*rng.Source, 2), make([]Result, 1)); err == nil {
		t.Fatal("mismatched srcs length accepted")
	}
	if err := batch.PlayPairs([]Player{nil}, []Player{p}, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil focal player accepted")
	}
	if err := batch.PlayPairs([]Player{p}, []Player{nil}, nil, make([]Result, 1)); err == nil {
		t.Fatal("nil opponent accepted")
	}
}

func benchmarkPlayBatch(b *testing.B, mem int, noise float64, kernel KernelMode) {
	e, err := NewEngine(EngineConfig{
		Rounds: DefaultRounds, MemorySteps: mem, Noise: noise,
		AccumMode: AccumLookup, Kernel: kernel,
	})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2013)
	opps := make([]Player, BatchLanes)
	for i := range opps {
		opps[i] = randomWordPlayer(mem, src)
	}
	focal := randomWordPlayer(mem, src)
	var srcs []*rng.Source
	if noise > 0 {
		srcs = make([]*rng.Source, len(opps))
		for i := range srcs {
			srcs[i] = rng.New(uint64(i))
		}
	}
	out := make([]Result, len(opps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PlayBatch(focal, opps, srcs, out); err != nil {
			b.Fatal(err)
		}
	}
	games := float64(b.N) * float64(len(opps))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/games, "ns/game")
}

func BenchmarkPlayBatchMemoryOne(b *testing.B)      { benchmarkPlayBatch(b, 1, 0, KernelBatch) }
func BenchmarkPlayBatchMemoryOneNoisy(b *testing.B) { benchmarkPlayBatch(b, 1, 0.05, KernelBatch) }
func BenchmarkPlayBatchMemoryThree(b *testing.B)    { benchmarkPlayBatch(b, 3, 0, KernelBatch) }
func BenchmarkPlayBatchScalarRef(b *testing.B)      { benchmarkPlayBatch(b, 1, 0, KernelFullReplay) }

// BenchmarkPlayPairsMemoryOneNoisy fills every lane with a different random
// focal and opponent, the shape of a merged pairwise-comparison event.
func BenchmarkPlayPairsMemoryOneNoisy(b *testing.B) {
	e, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 1, Noise: 0.05, AccumMode: AccumLookup})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2013)
	as, bs := make([]Player, BatchLanes), make([]Player, BatchLanes)
	srcs := make([]*rng.Source, BatchLanes)
	for i := range as {
		as[i], bs[i], srcs[i] = randomWordPlayer(1, src), randomWordPlayer(1, src), rng.New(uint64(i))
	}
	out := make([]Result, BatchLanes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.PlayPairs(as, bs, srcs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*BatchLanes), "ns/game")
}
