package game_test

import (
	"fmt"
	"testing"

	"evogame/internal/analysis"
	"evogame/internal/cpuid"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// defectBiased returns a memory-mem pure strategy that defects wherever
// any of four random strategies does: with probability 15/16 per state.
func defectBiased(mem int, src *rng.Source) *strategy.Pure {
	p := strategy.RandomPure(mem, src)
	for k := 0; k < 3; k++ {
		q := strategy.RandomPure(mem, src)
		for s := 0; s < game.NumStates(mem); s++ {
			if q.Move(s) == game.Defect {
				p.SetMove(s, game.Defect)
			}
		}
	}
	return p
}

// TestKernelsMatchExactOracle checks every deterministic kernel against
// the independent joint-state computation of analysis.ExpectedPayoffs,
// which without noise is the exact total of each player: the scalar
// round-by-round replay (KernelFullReplay), cycle closing (KernelAuto's
// Play), the SWAR batch (KernelBatch's PlayPairs) and KernelAuto's
// PlayPairs, which at memory four to six runs the AVX-512 gather lanes
// where the CPU has them.  The pairs are random and defect-biased, at
// memory one to six and 200 rounds, and every total must be equal, not
// merely close.
func TestKernelsMatchExactOracle(t *testing.T) {
	payoff := game.Standard()
	for mem := 1; mem <= game.MaxMemorySteps; mem++ {
		t.Run(fmt.Sprintf("memory-%d", mem), func(t *testing.T) {
			src := rng.New(uint64(2013 + mem))
			var as, bs []game.Player
			var want [][2]float64
			// One full chunk of random pairs, whose walks run long enough to
			// fill the gather lanes, then one of defect-biased pairs.
			for i := 0; i < 2*game.BatchLanes; i++ {
				var a, b *strategy.Pure
				if i < game.BatchLanes {
					a, b = strategy.RandomPure(mem, src), strategy.RandomPure(mem, src)
				} else {
					a, b = defectBiased(mem, src), defectBiased(mem, src)
				}
				fa, fb, err := analysis.ExpectedPayoffs(a, b, payoff, game.DefaultRounds, 0)
				if err != nil {
					t.Fatal(err)
				}
				as, bs, want = append(as, a), append(bs, b), append(want, [2]float64{fa, fb})
			}
			engine := func(k game.KernelMode) *game.Engine {
				e, err := game.NewEngine(game.EngineConfig{Rounds: game.DefaultRounds, MemorySteps: mem, Payoff: payoff, Kernel: k})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			check := func(path string, got []game.Result) {
				t.Helper()
				for i, r := range got {
					if r.FitnessA != want[i][0] || r.FitnessB != want[i][1] {
						t.Fatalf("%s game %d: totals (%v, %v), exact (%v, %v)", path, i, r.FitnessA, r.FitnessB, want[i][0], want[i][1])
					}
				}
			}
			for _, k := range []game.KernelMode{game.KernelFullReplay, game.KernelAuto} {
				e := engine(k)
				got := make([]game.Result, len(as))
				for i := range as {
					var err error
					if got[i], err = e.Play(as[i], bs[i], nil); err != nil {
						t.Fatal(err)
					}
				}
				check(k.String()+" Play", got)
			}
			for _, k := range []game.KernelMode{game.KernelBatch, game.KernelAuto} {
				e := engine(k)
				got := make([]game.Result, len(as))
				if err := e.PlayPairs(as, bs, nil, got); err != nil {
					t.Fatal(err)
				}
				check(k.String()+" PlayPairs", got)
				s := e.KernelStats()
				if k == game.KernelBatch && s.BatchGames != int64(len(as)) {
					t.Fatalf("batch mode played %+v, want every game on the SWAR kernel", s)
				}
				if k == game.KernelAuto && mem >= 4 && cpuid.AVX512() && s.VectorGames == 0 {
					t.Fatalf("auto mode at memory %d played %+v, want some games on the gather lanes", mem, s)
				}
			}
		})
	}
}
