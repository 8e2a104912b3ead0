package game

import (
	"testing"
	"testing/quick"

	"evogame/internal/rng"
)

// testPlayer is a minimal Player implementation driven by a move table; the
// real strategy types live in the strategy package, which depends on this
// one, so tests here use a local stand-in.
type testPlayer struct {
	mem   int
	moves []Move   // indexed by state
	words []uint64 // moves packed as Player.Words returns them
}

func newTestPlayer(mem int, moves []Move) *testPlayer {
	words := make([]uint64, (len(moves)+63)/64)
	for s, m := range moves {
		words[s>>6] |= uint64(m) << (uint(s) & 63)
	}
	return &testPlayer{mem: mem, moves: moves, words: words}
}

func (p *testPlayer) MemorySteps() int    { return p.mem }
func (p *testPlayer) Words() []uint64     { return p.words }
func (p *testPlayer) Move(state int) Move { return p.moves[state] }

// makeMemOne returns a memory-one test player from the four moves for states
// CC, CD, DC, DD.
func makeMemOne(cc, cd, dc, dd Move) *testPlayer {
	return newTestPlayer(1, []Move{cc, cd, dc, dd})
}

func allC() *testPlayer { return makeMemOne(Cooperate, Cooperate, Cooperate, Cooperate) }
func allD() *testPlayer { return makeMemOne(Defect, Defect, Defect, Defect) }
func tft() *testPlayer  { return makeMemOne(Cooperate, Defect, Cooperate, Defect) }
func wsls() *testPlayer { return makeMemOne(Cooperate, Defect, Defect, Cooperate) }

func mustEngine(t *testing.T, cfg EngineConfig) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaults(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 10, MemorySteps: 1})
	if e.Payoff() != Standard() {
		t.Fatal("zero payoff matrix should default to Standard()")
	}
	if e.Rounds() != 10 || e.MemorySteps() != 1 || e.Noise() != 0 {
		t.Fatal("engine does not reflect its configuration")
	}
}

func TestNewEngineValidation(t *testing.T) {
	cases := []EngineConfig{
		{Rounds: 0, MemorySteps: 1},
		{Rounds: -5, MemorySteps: 1},
		{Rounds: 10, MemorySteps: 0},
		{Rounds: 10, MemorySteps: 7},
		{Rounds: 10, MemorySteps: 1, Noise: -0.1},
		{Rounds: 10, MemorySteps: 1, Noise: 1.5},
		{Rounds: 10, MemorySteps: 1, Payoff: Matrix{Reward: 1, Sucker: 2, Temptation: 3, Punishment: 4}},
	}
	for i, cfg := range cases {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("case %d: NewEngine accepted invalid config %+v", i, cfg)
		}
	}
}

func TestPlayMemoryMismatch(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 10, MemorySteps: 2})
	if _, err := e.Play(allC(), allC(), nil); err == nil {
		t.Fatal("Play accepted players whose memory does not match the engine")
	}
}

func TestPlayRequiresSourceWhenRandom(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 10, MemorySteps: 1, Noise: 0.1})
	if _, err := e.Play(allC(), allC(), nil); err == nil {
		t.Fatal("Play with noise accepted a nil rng source")
	}
}

func TestAllCvsAllC(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 200, MemorySteps: 1})
	res, err := e.Play(allC(), allC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessA != 600 || res.FitnessB != 600 {
		t.Fatalf("AllC vs AllC fitness = %v/%v, want 600/600", res.FitnessA, res.FitnessB)
	}
	if res.CooperationsA != 200 || res.CooperationsB != 200 {
		t.Fatalf("cooperation counts = %d/%d, want 200/200", res.CooperationsA, res.CooperationsB)
	}
}

func TestAllDvsAllC(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 200, MemorySteps: 1})
	res, err := e.Play(allD(), allC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessA != 800 {
		t.Fatalf("AllD vs AllC exploiter fitness = %v, want 800 (T each round)", res.FitnessA)
	}
	if res.FitnessB != 0 {
		t.Fatalf("AllC vs AllD sucker fitness = %v, want 0", res.FitnessB)
	}
}

func TestAllDvsAllD(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 100, MemorySteps: 1})
	res, err := e.Play(allD(), allD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessA != 100 || res.FitnessB != 100 {
		t.Fatalf("AllD vs AllD fitness = %v/%v, want 100/100 (P each round)", res.FitnessA, res.FitnessB)
	}
}

func TestTFTvsAllD(t *testing.T) {
	// TFT cooperates in round one (state CC from the seeded history) and is
	// exploited once, then defects forever: fitness = S + (n-1)*P.
	e := mustEngine(t, EngineConfig{Rounds: 200, MemorySteps: 1})
	res, err := e.Play(tft(), allD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantTFT := 0.0 + 199*1
	wantAllD := 4.0 + 199*1
	if res.FitnessA != wantTFT || res.FitnessB != wantAllD {
		t.Fatalf("TFT vs AllD fitness = %v/%v, want %v/%v", res.FitnessA, res.FitnessB, wantTFT, wantAllD)
	}
}

func TestTFTvsTFTSustainsCooperation(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 200, MemorySteps: 1})
	res, err := e.Play(tft(), tft(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessA != 600 || res.FitnessB != 600 {
		t.Fatalf("TFT vs TFT fitness = %v/%v, want mutual cooperation (600/600)", res.FitnessA, res.FitnessB)
	}
}

func TestWSLSvsWSLSSustainsCooperation(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 100, MemorySteps: 1})
	res, err := e.Play(wsls(), wsls(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FitnessA != 300 || res.FitnessB != 300 {
		t.Fatalf("WSLS vs WSLS fitness = %v/%v, want 300/300", res.FitnessA, res.FitnessB)
	}
}

// push returns the memory-n state after one more round (my, opp): the
// rolling code both round loops keep.
func push(state, mem int, my, opp Move) int {
	return (state<<2 | RoundCode(my, opp)) & (NumStates(mem) - 1)
}

// postErrorStates returns both memory-one players' states after a round in
// which A defected by mistake and B cooperated, identified the way the
// paper's original kernel does: FindState over the explicit view.
func postErrorStates(t *testing.T) (int, int) {
	t.Helper()
	tab := NewStateTable(1)
	sA := tab.FindState([]uint8{uint8(RoundCode(Defect, Cooperate))})
	sB := tab.FindState([]uint8{uint8(RoundCode(Cooperate, Defect))})
	if sA != push(InitialState, 1, Defect, Cooperate) || sB != push(InitialState, 1, Cooperate, Defect) {
		t.Fatalf("FindState and the rolling code disagree on the post-error states: %d/%d", sA, sB)
	}
	return sA, sB
}

func TestWSLSRecoversFromSingleError(t *testing.T) {
	// The defining property of WSLS (Nowak & Sigmund 1993): after a single
	// accidental defection between two WSLS players, both players defect the
	// next round (the defector won so it stays with defect, the sucker
	// shifts to defect), then both switch back to cooperation together.
	// TFT instead locks into alternating defection.  We simulate the error
	// by starting from the post-error state rather than injecting noise,
	// keeping the test deterministic.
	a, b := wsls(), wsls()
	sA, sB := postErrorStates(t)

	// For WSLS: A is in state DC -> defect again; B is in state CD ->
	// defect.  Round 2: both in DD -> both cooperate.  So within two rounds
	// mutual cooperation is restored.
	moveA, moveB := a.Move(sA), b.Move(sB)
	if moveA != Defect || moveB != Defect {
		t.Fatalf("round 1 after error: moves %s/%s, want D/D", moveA, moveB)
	}
	sA, sB = push(sA, 1, moveA, moveB), push(sB, 1, moveB, moveA)
	moveA, moveB = a.Move(sA), b.Move(sB)
	if moveA != Cooperate || moveB != Cooperate {
		t.Fatalf("round 2 after error: moves %s/%s, want C/C (WSLS recovers)", moveA, moveB)
	}
}

func TestTFTDeathSpiralAfterError(t *testing.T) {
	// Contrast with WSLS: two TFT players never recover from a single
	// error — they alternate defections forever.
	a, b := tft(), tft()
	sA, sB := postErrorStates(t)
	mutualCooperation := false
	for round := 0; round < 10; round++ {
		moveA, moveB := a.Move(sA), b.Move(sB)
		if moveA == Cooperate && moveB == Cooperate {
			mutualCooperation = true
		}
		sA, sB = push(sA, 1, moveA, moveB), push(sB, 1, moveB, moveA)
	}
	if mutualCooperation {
		t.Fatal("TFT vs TFT recovered mutual cooperation after an error; it should not")
	}
}

func TestAccumModesAgree(t *testing.T) {
	for _, players := range [][2]*testPlayer{{allC(), allD()}, {tft(), wsls()}, {wsls(), allD()}} {
		branch := mustEngine(t, EngineConfig{Rounds: 50, MemorySteps: 1, AccumMode: AccumBranching})
		lookup := mustEngine(t, EngineConfig{Rounds: 50, MemorySteps: 1, AccumMode: AccumLookup})
		r1, err := branch.Play(players[0], players[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := lookup.Play(players[0], players[1], nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("accumulation modes disagree: %+v vs %+v", r1, r2)
		}
	}
}

func TestStateModesAgree(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		// Use memory-n WSLS-like players: cooperate when the most recent
		// round was symmetric.
		n := NumStates(mem)
		moves := make([]Move, n)
		for s := 0; s < n; s++ {
			if (s&3) == 0 || (s&3) == 3 {
				moves[s] = Cooperate
			} else {
				moves[s] = Defect
			}
		}
		p := newTestPlayer(mem, moves)
		q := newTestPlayer(mem, append([]Move(nil), moves...))
		linear := mustEngine(t, EngineConfig{Rounds: 80, MemorySteps: mem, StateMode: StateLinearSearch})
		rolling := mustEngine(t, EngineConfig{Rounds: 80, MemorySteps: mem, StateMode: StateRolling})
		r1, err := linear.Play(p, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := rolling.Play(p, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 {
			t.Fatalf("memory-%d: state modes disagree: %+v vs %+v", mem, r1, r2)
		}
	}
}

func TestGameSymmetry(t *testing.T) {
	// Swapping the players swaps the results.
	e := mustEngine(t, EngineConfig{Rounds: 64, MemorySteps: 1})
	r1, err := e.Play(tft(), allD(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Play(allD(), tft(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FitnessA != r2.FitnessB || r1.FitnessB != r2.FitnessA {
		t.Fatalf("game is not symmetric: %+v vs %+v", r1, r2)
	}
}

func TestNoiseReducesAllCFitnessAgainstItself(t *testing.T) {
	// With noise, two AllC players occasionally defect, so total fitness
	// drops below the noiseless 2*R*rounds while staying above 2*P*rounds.
	src := rng.New(123)
	e := mustEngine(t, EngineConfig{Rounds: 200, MemorySteps: 1, Noise: 0.1})
	res, err := e.Play(allC(), allC(), src)
	if err != nil {
		t.Fatal(err)
	}
	total := res.FitnessA + res.FitnessB
	if total >= 1200 {
		t.Fatalf("noisy AllC vs AllC total fitness %v, want < 1200", total)
	}
	if total <= 400 {
		t.Fatalf("noisy AllC vs AllC total fitness %v is implausibly low", total)
	}
	if res.CooperationsA == 200 && res.CooperationsB == 200 {
		t.Fatal("noise at 10% produced no defections in 400 moves")
	}
}

func TestNoiseIsDeterministicGivenSeed(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 100, MemorySteps: 1, Noise: 0.05})
	r1, err := e.Play(tft(), wsls(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Play(tft(), wsls(), rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("same seed produced different noisy games: %+v vs %+v", r1, r2)
	}
}

func TestPlayFitness(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 10, MemorySteps: 1})
	fit, err := e.PlayFitness(allD(), allC(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 40 {
		t.Fatalf("PlayFitness = %v, want 40", fit)
	}
	if _, err := e.PlayFitness(newTestPlayer(2, make([]Move, 16)), allC(), nil); err == nil {
		t.Fatal("PlayFitness accepted mismatched memory")
	}
}

// Property: total fitness of any deterministic memory-one game is bounded by
// the number of rounds times the extreme payoffs, and fitness is never
// negative for the standard matrix.
func TestQuickFitnessBounds(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 50, MemorySteps: 1})
	f := func(bitsA, bitsB uint8) bool {
		a := makeMemOne(Move(bitsA&1), Move((bitsA>>1)&1), Move((bitsA>>2)&1), Move((bitsA>>3)&1))
		b := makeMemOne(Move(bitsB&1), Move((bitsB>>1)&1), Move((bitsB>>2)&1), Move((bitsB>>3)&1))
		res, err := e.Play(a, b, nil)
		if err != nil {
			return false
		}
		maxTotal := 50 * (Standard().Temptation + Standard().Sucker) // exploit rounds
		_ = maxTotal
		perPlayerMax := 50 * Standard().MaxPerRound()
		return res.FitnessA >= 0 && res.FitnessB >= 0 &&
			res.FitnessA <= perPlayerMax && res.FitnessB <= perPlayerMax &&
			res.CooperationsA >= 0 && res.CooperationsA <= 50 &&
			res.CooperationsB >= 0 && res.CooperationsB <= 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: deterministic games are reproducible — playing the same pair
// twice gives identical results.
func TestQuickDeterministicReproducible(t *testing.T) {
	e := mustEngine(t, EngineConfig{Rounds: 30, MemorySteps: 1})
	f := func(bitsA, bitsB uint8) bool {
		a := makeMemOne(Move(bitsA&1), Move((bitsA>>1)&1), Move((bitsA>>2)&1), Move((bitsA>>3)&1))
		b := makeMemOne(Move(bitsB&1), Move((bitsB>>1)&1), Move((bitsB>>2)&1), Move((bitsB>>3)&1))
		r1, err1 := e.Play(a, b, nil)
		r2, err2 := e.Play(a, b, nil)
		return err1 == nil && err2 == nil && r1 == r2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPlayMemoryOneRolling(b *testing.B) {
	e, _ := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 1})
	a, c := wsls(), tft()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = e.Play(a, c, nil)
	}
}

func BenchmarkPlayMemoryOneLinearSearch(b *testing.B) {
	e, _ := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: 1, StateMode: StateLinearSearch, AccumMode: AccumBranching})
	a, c := wsls(), tft()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = e.Play(a, c, nil)
	}
}
