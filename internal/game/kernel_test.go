package game

import (
	"fmt"
	"testing"

	"evogame/internal/rng"
)

// wordPlayer is a deterministic player backed by a packed move table, the
// shape the cycle-closing kernel requires (strategy.Pure has the same shape;
// the game package cannot import it without a cycle).
type wordPlayer struct {
	mem   int
	words []uint64
}

func newWordPlayer(mem int) *wordPlayer {
	n := NumStates(mem)
	return &wordPlayer{mem: mem, words: make([]uint64, (n+63)/64)}
}

func randomWordPlayer(mem int, src *rng.Source) *wordPlayer {
	p := newWordPlayer(mem)
	src.FillUint64(p.words)
	if rem := NumStates(mem) % 64; rem != 0 {
		p.words[len(p.words)-1] &= (1 << uint(rem)) - 1
	}
	return p
}

func (p *wordPlayer) MemorySteps() int { return p.mem }

func (p *wordPlayer) Words() []uint64 { return p.words }

func (p *wordPlayer) Move(state int) Move {
	return Move(p.words[state>>6] >> (uint(state) & 63) & 1)
}

func (p *wordPlayer) set(state int, m Move) {
	if m == Defect {
		p.words[state>>6] |= 1 << (uint(state) & 63)
	} else {
		p.words[state>>6] &^= 1 << (uint(state) & 63)
	}
}

func TestKernelModeStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		mode KernelMode
		name string
	}{{KernelAuto, "auto"}, {KernelFullReplay, "full-replay"}} {
		if tc.mode.String() != tc.name {
			t.Errorf("%d.String() = %q, want %q", tc.mode, tc.mode.String(), tc.name)
		}
		got, err := ParseKernelMode(tc.name)
		if err != nil || got != tc.mode {
			t.Errorf("ParseKernelMode(%q) = %v, %v", tc.name, got, err)
		}
		if !tc.mode.Valid() {
			t.Errorf("%v should be valid", tc.mode)
		}
	}
	if m, err := ParseKernelMode(""); err != nil || m != KernelAuto {
		t.Errorf("empty selection = %v, %v; want KernelAuto", m, err)
	}
	if _, err := ParseKernelMode("bogus"); err == nil {
		t.Error("ParseKernelMode accepted an unknown mode")
	}
	if KernelMode(9).Valid() {
		t.Error("out-of-range mode should be invalid")
	}
	if KernelMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
	if _, err := NewEngine(EngineConfig{Rounds: 10, MemorySteps: 1, Kernel: KernelMode(9)}); err == nil {
		t.Error("NewEngine accepted an invalid kernel mode")
	}
}

// kernelEnginePair builds one engine per kernel mode with otherwise
// identical configuration.
func kernelEnginePair(t *testing.T, cfg EngineConfig) (auto, full *Engine) {
	t.Helper()
	cfg.Kernel = KernelAuto
	a, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel = KernelFullReplay
	f, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a, f
}

// TestCycleClosingExhaustiveMemoryOne pins the cycle-closing kernel to the
// full-replay reference over every ordered pair of the 16 memory-one
// deterministic strategies and a spread of round counts (including counts
// small enough that the fast path must fall back).
func TestCycleClosingExhaustiveMemoryOne(t *testing.T) {
	players := make([]*wordPlayer, 16)
	for code := 0; code < 16; code++ {
		p := newWordPlayer(1)
		for s := 0; s < 4; s++ {
			if code&(1<<uint(s)) != 0 {
				p.set(s, Defect)
			}
		}
		players[code] = p
	}
	for _, rounds := range []int{1, 2, 3, 5, 17, 50, 200} {
		auto, full := kernelEnginePair(t, EngineConfig{Rounds: rounds, MemorySteps: 1,
			StateMode: StateRolling, AccumMode: AccumLookup})
		for i, a := range players {
			for j, b := range players {
				want, err := full.Play(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := auto.Play(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("rounds=%d pair (%d,%d): cycle-closing %+v, full replay %+v",
						rounds, i, j, got, want)
				}
			}
		}
	}
}

// firstRevisit returns the first round at which the noiseless game between
// a and b re-enters a joint (focal, opponent) state it has already visited.
// It walks the full joint state independently of the kernel's focal-only
// walk, so it also checks that the opponent's state adds no information.
func firstRevisit(a, b *wordPlayer) int {
	seen := make(map[[2]int]bool)
	mask := NumStates(a.mem) - 1
	sA, sB := InitialState, InitialState
	for r := 0; ; r++ {
		if seen[[2]int{sA, sB}] {
			return r
		}
		seen[[2]int{sA, sB}] = true
		ma, mb := int(a.Move(sA)), int(b.Move(sB))
		sA = (sA<<2 | ma<<1 | mb) & mask
		sB = (sB<<2 | mb<<1 | ma) & mask
	}
}

// statsDelta returns the kernel-mix counters one Play call added.
func statsDelta(t *testing.T, e *Engine, a, b Player) (Result, KernelStats) {
	t.Helper()
	before := e.KernelStats()
	res, err := e.Play(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	after := e.KernelStats()
	return res, KernelStats{
		ScalarGames: after.ScalarGames - before.ScalarGames,
		CycleGames:  after.CycleGames - before.CycleGames,
		BatchGames:  after.BatchGames - before.BatchGames,
		BatchCalls:  after.BatchCalls - before.BatchCalls,
	}
}

// TestCycleClosingRandomDeeperMemory cross-checks random strategy pairs and
// self-play at memory depths two through six, where the state space is too
// large to enumerate, over round counts from a single round to well past
// the paper's 200.  It also pins the kernel split: a game counts as a cycle
// game exactly when its walk revisits a state before the last round, and
// as a scalar game otherwise.  At memory six a random walk usually revisits
// within a few dozen rounds, but a few percent run past 200 rounds without
// one; the memory-six trial count is sized to hit both kinds.
func TestCycleClosingRandomDeeperMemory(t *testing.T) {
	src := rng.New(99)
	roundCounts := []int{1, 2, 3, DefaultRounds, 255, 1000}
	for mem := 2; mem <= MaxMemorySteps; mem++ {
		autos := make([]*Engine, len(roundCounts))
		fulls := make([]*Engine, len(roundCounts))
		for i, rounds := range roundCounts {
			autos[i], fulls[i] = kernelEnginePair(t, EngineConfig{Rounds: rounds, MemorySteps: mem,
				StateMode: StateRolling, AccumMode: AccumLookup})
		}
		trials := 40
		if mem == MaxMemorySteps {
			trials = 1000
		}
		closed, open := 0, 0
		for trial := 0; trial < trials; trial++ {
			a := randomWordPlayer(mem, src)
			b := randomWordPlayer(mem, src)
			for _, pair := range [][2]*wordPlayer{{a, b}, {a, a}} {
				revisit := firstRevisit(pair[0], pair[1])
				for i, rounds := range roundCounts {
					want, err := fulls[i].Play(pair[0], pair[1], nil)
					if err != nil {
						t.Fatal(err)
					}
					got, d := statsDelta(t, autos[i], pair[0], pair[1])
					if got != want {
						t.Fatalf("memory-%d trial %d rounds=%d: cycle-closing %+v, full replay %+v",
							mem, trial, rounds, got, want)
					}
					wantCycle := int64(0)
					if revisit < rounds {
						wantCycle = 1
					}
					if d.CycleGames != wantCycle || d.ScalarGames != 1-wantCycle || d.BatchGames != 0 {
						t.Fatalf("memory-%d trial %d rounds=%d: first revisit at round %d, kernel split %+v",
							mem, trial, rounds, revisit, d)
					}
					if rounds == DefaultRounds {
						if wantCycle == 1 {
							closed++
						} else {
							open++
						}
					}
				}
			}
		}
		if mem == MaxMemorySteps {
			t.Logf("memory-%d at %d rounds: %d closed and %d open walks", mem, DefaultRounds, closed, open)
		}
		if mem == MaxMemorySteps && (closed == 0 || open == 0) {
			t.Errorf("memory-%d at %d rounds: %d closed and %d open walks; want both kinds",
				mem, DefaultRounds, closed, open)
		}
	}
}

// TestCycleClosingGates verifies the bit-exactness gate through the
// kernel-mix counters: a fractional payoff matrix replays round by round,
// while the qualifying configuration closes its cycle allocation-free.
func TestCycleClosingGates(t *testing.T) {
	a := newWordPlayer(1)
	b := newWordPlayer(1)
	b.set(0, Defect)
	b.set(2, Defect)

	auto, _ := kernelEnginePair(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	if _, d := statsDelta(t, auto, a, b); d.CycleGames != 1 || d.ScalarGames != 0 {
		t.Errorf("qualifying game: kernel split %+v, want one cycle game", d)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := auto.Play(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 && !raceEnabled {
		t.Errorf("deterministic fast path allocates %v objects/op, want 0", n)
	}

	// Fractional payoffs: KernelAuto must not take the closed form.
	frac, err := Generic().WithPayoff(Matrix{Reward: 3.25, Sucker: 0.5, Temptation: 4.75, Punishment: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	fracAuto, err := NewEngine(EngineConfig{Game: frac, Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	if err != nil {
		t.Fatal(err)
	}
	if _, d := statsDelta(t, fracAuto, a, b); d.CycleGames != 0 || d.ScalarGames != 1 {
		t.Errorf("fractional payoff matrix: kernel split %+v, want one scalar game", d)
	}
}

// TestScalarLoopAllocationFree pins the round-by-round loop to zero heap
// allocations in every configuration that reaches it: full replay through
// the production loop and the ablation reference loop, and a noisy game.
func TestScalarLoopAllocationFree(t *testing.T) {
	a := randomWordPlayer(MaxMemorySteps, rng.New(5))
	b := randomWordPlayer(MaxMemorySteps, rng.New(6))
	for _, cfg := range []EngineConfig{
		{Rounds: DefaultRounds, MemorySteps: MaxMemorySteps, Kernel: KernelFullReplay, StateMode: StateRolling},
		{Rounds: DefaultRounds, MemorySteps: MaxMemorySteps, Kernel: KernelFullReplay, StateMode: StateLinearSearch, AccumMode: AccumBranching},
		{Rounds: DefaultRounds, MemorySteps: MaxMemorySteps, Noise: 0.05, StateMode: StateRolling, AccumMode: AccumLookup},
	} {
		e := mustEngine(t, cfg)
		src := rng.New(7)
		if n := testing.AllocsPerRun(20, func() {
			if _, err := e.Play(a, b, src); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%+v: round-by-round loop allocates %v objects/op, want 0", cfg, n)
		}
	}
}

// TestNoisyDrawOrder pins the per-round consumption of the game's source in
// the round-by-round loop: A's flip, then B's flip.  The SWAR batch kernel
// and every recorded noisy trajectory depend on it.  The players differ, so
// the reverse order gives a different game; the test checks that too, so it
// cannot pass for either order.
func TestNoisyDrawOrder(t *testing.T) {
	const rounds, noise = 60, 0.3
	e := mustEngine(t, EngineConfig{Rounds: rounds, MemorySteps: 1, Noise: noise})
	a, b := tft(), wsls()
	got, err := e.Play(a, b, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	reference := func(aFirst bool) Result {
		src := rng.New(21)
		sA, sB := InitialState, InitialState
		res := Result{Rounds: rounds}
		for r := 0; r < rounds; r++ {
			moveA, moveB := a.Move(sA), b.Move(sB)
			flipA, flipB := src.Bool(noise), src.Bool(noise)
			if !aFirst {
				flipA, flipB = flipB, flipA
			}
			if flipA {
				moveA = moveA.Flip()
			}
			if flipB {
				moveB = moveB.Flip()
			}
			if moveA == Cooperate {
				res.CooperationsA++
			}
			if moveB == Cooperate {
				res.CooperationsB++
			}
			res.FitnessA += e.Payoff().Payoff(moveA, moveB)
			res.FitnessB += e.Payoff().Payoff(moveB, moveA)
			sA, sB = push(sA, 1, moveA, moveB), push(sB, 1, moveB, moveA)
		}
		return res
	}
	if want := reference(true); got != want {
		t.Fatalf("noisy game %+v, reference draw order %+v", got, want)
	}
	if reversed := reference(false); got == reversed {
		t.Fatalf("B-first draw order gives the same game %+v, so the test cannot tell the orders apart", got)
	}
}

// TestCycleClosingSelfPlay covers the symmetric self-play diagonal, whose
// mirror key equals its own key.
func TestCycleClosingSelfPlay(t *testing.T) {
	src := rng.New(3)
	auto, full := kernelEnginePair(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
		StateMode: StateRolling, AccumMode: AccumLookup})
	for trial := 0; trial < 16; trial++ {
		p := randomWordPlayer(1, src)
		want, err := full.Play(p, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := auto.Play(p, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("self-play trial %d: %+v vs %+v", trial, got, want)
		}
		if got.FitnessA != got.FitnessB || got.CooperationsA != got.CooperationsB {
			t.Fatalf("self-play must be symmetric: %+v", got)
		}
	}
}

func BenchmarkKernelMemoryOne(b *testing.B) {
	src := rng.New(11)
	a := randomWordPlayer(1, src)
	p := randomWordPlayer(1, src)
	for _, mode := range []KernelMode{KernelFullReplay, KernelAuto} {
		eng, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 1,
			StateMode: StateRolling, AccumMode: AccumLookup, Kernel: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kernel-%s", mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Play(a, p, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKernelMemorySix plays random memory-six pairs, the Figure 6
// regime where walks revisit a state only after tens to hundreds of rounds.
func BenchmarkKernelMemorySix(b *testing.B) {
	src := rng.New(11)
	pairs := make([][2]*wordPlayer, 64)
	for i := range pairs {
		pairs[i] = [2]*wordPlayer{randomWordPlayer(6, src), randomWordPlayer(6, src)}
	}
	for _, mode := range []KernelMode{KernelFullReplay, KernelAuto} {
		eng, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 6,
			StateMode: StateRolling, AccumMode: AccumLookup, Kernel: mode})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("kernel-%s", mode), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if _, err := eng.Play(p[0], p[1], nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fuzzPayoffs are the integer-valued scenarios FuzzCycleClosing plays.
var fuzzPayoffs = []Spec{IPD(), Snowdrift(), StagHunt()}

// fuzzWordPlayer builds a memory-mem player whose packed move table repeats
// seed's bytes; an empty seed is always-cooperate.
func fuzzWordPlayer(mem int, seed []byte) *wordPlayer {
	p := newWordPlayer(mem)
	if len(seed) == 0 {
		return p
	}
	for s := 0; s < NumStates(mem); s++ {
		if seed[(s/8)%len(seed)]>>(uint(s)%8)&1 == 1 {
			p.set(s, Defect)
		}
	}
	return p
}

// FuzzCycleClosing asserts that KernelAuto reproduces the round-by-round
// reference bit for bit for any pair of packed move tables at memory one
// to six, 1 to 512 rounds and every integer-valued built-in scenario.
func FuzzCycleClosing(f *testing.F) {
	f.Add(uint8(1), uint16(200), uint8(0), []byte{0x0a}, []byte{0x06})
	f.Add(uint8(3), uint16(3), uint8(1), []byte{0xff, 0x00}, []byte{0x5a})
	f.Add(uint8(6), uint16(512), uint8(2), []byte{0x13, 0x37, 0xc0, 0xde}, []byte{0x9e, 0x37, 0x79, 0xb9, 0x7f})
	f.Fuzz(func(t *testing.T, mem uint8, rounds uint16, game uint8, seedA, seedB []byte) {
		m := 1 + int(mem)%MaxMemorySteps
		r := 1 + int(rounds)%512
		cfg := EngineConfig{Game: fuzzPayoffs[int(game)%len(fuzzPayoffs)], Rounds: r, MemorySteps: m,
			StateMode: StateRolling, AccumMode: AccumLookup}
		cfg.Kernel = KernelAuto
		auto, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Kernel = KernelFullReplay
		full, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, b := fuzzWordPlayer(m, seedA), fuzzWordPlayer(m, seedB)
		for _, pair := range [][2]*wordPlayer{{a, b}, {b, a}, {a, a}} {
			want, err := full.Play(pair[0], pair[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := auto.Play(pair[0], pair[1], nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s memory-%d rounds=%d: cycle-closing %+v, full replay %+v",
					cfg.Game.Name, m, r, got, want)
			}
		}
	})
}
