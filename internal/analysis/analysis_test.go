package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func TestExpectedPayoffsValidation(t *testing.T) {
	wsls := strategy.WSLS(1)
	if _, _, err := ExpectedPayoffs(nil, wsls, game.Standard(), 10, 0); err == nil {
		t.Fatal("accepted nil strategy")
	}
	if _, _, err := ExpectedPayoffs(wsls, strategy.WSLS(2), game.Standard(), 10, 0); err == nil {
		t.Fatal("accepted mismatched memory")
	}
	if _, _, err := ExpectedPayoffs(wsls, wsls, game.Standard(), 0, 0); err == nil {
		t.Fatal("accepted zero rounds")
	}
	if _, _, err := ExpectedPayoffs(wsls, wsls, game.Standard(), 10, -0.1); err == nil {
		t.Fatal("accepted negative noise")
	}
	if _, _, err := ExpectedPayoffs(wsls, wsls, game.Matrix{}, 10, 0); err == nil {
		t.Fatal("accepted an invalid payoff matrix")
	}
}

func TestExpectedPayoffsNoiselessMatchesSimulation(t *testing.T) {
	// Without noise the expected payoff must equal the deterministic game
	// exactly, for every pair of classic strategies and several memory
	// depths.
	for mem := 1; mem <= 3; mem++ {
		eng, err := game.NewEngine(game.EngineConfig{Rounds: 100, MemorySteps: mem})
		if err != nil {
			t.Fatal(err)
		}
		pool := []*strategy.Pure{
			strategy.AllC(mem), strategy.AllD(mem), strategy.TFT(mem),
			strategy.WSLS(mem), strategy.GRIM(mem), strategy.Alternator(mem),
		}
		for _, a := range pool {
			for _, b := range pool {
				exactA, exactB, err := ExpectedPayoffs(a, b, game.Standard(), 100, 0)
				if err != nil {
					t.Fatal(err)
				}
				res, err := eng.Play(a, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !near(exactA, res.FitnessA, 1e-9) || !near(exactB, res.FitnessB, 1e-9) {
					t.Fatalf("memory-%d %s vs %s: exact (%v,%v) != simulated (%v,%v)",
						mem, a, b, exactA, exactB, res.FitnessA, res.FitnessB)
				}
			}
		}
	}
}

func TestExpectedPayoffsNoisyMatchesSimulationMean(t *testing.T) {
	// With noise the exact expectation must match the empirical mean of many
	// simulated games within a few standard errors.
	cases := []struct{ a, b *strategy.Pure }{
		{strategy.WSLS(1), strategy.WSLS(1)},
		{strategy.TFT(1), strategy.AllD(1)},
		{strategy.GRIM(1), strategy.WSLS(1)},
	}
	const rounds = 100
	const noise = 0.05
	const trials = 3000
	eng, err := game.NewEngine(game.EngineConfig{Rounds: rounds, MemorySteps: 1, Noise: noise})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	for _, tc := range cases {
		exactA, _, err := ExpectedPayoffs(tc.a, tc.b, game.Standard(), rounds, noise)
		if err != nil {
			t.Fatal(err)
		}
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			res, err := eng.Play(tc.a, tc.b, src)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.FitnessA
			sumSq += res.FitnessA * res.FitnessA
		}
		mean := sum / trials
		variance := sumSq/trials - mean*mean
		stderr := math.Sqrt(variance / trials)
		if math.Abs(mean-exactA) > 5*stderr+1e-6 {
			t.Fatalf("%s vs %s: exact %v, simulated mean %v (stderr %v)", tc.a, tc.b, exactA, mean, stderr)
		}
	}
}

func TestExpectedPayoffsKnownValues(t *testing.T) {
	// AllD vs AllC: T per round for the defector, S for the cooperator.
	a, b := strategy.AllD(1), strategy.AllC(1)
	pa, pb, err := ExpectedPayoffs(a, b, game.Standard(), 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 800 || pb != 0 {
		t.Fatalf("AllD vs AllC = (%v,%v), want (800,0)", pa, pb)
	}
	// WSLS vs WSLS with full noise 0.5 behaves like random play: mean payoff
	// (3+0+4+1)/4 = 2 per round for both.
	pa, pb, err = ExpectedPayoffs(strategy.WSLS(1), strategy.WSLS(1), game.Standard(), 200, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa-400) > 1e-6 || math.Abs(pb-400) > 1e-6 {
		t.Fatalf("fully random WSLS game = (%v,%v), want (400,400)", pa, pb)
	}
}

func TestExpectedPayoffsSymmetry(t *testing.T) {
	// Swapping the players must swap the payoffs.
	a, b := strategy.TFT(2), strategy.GRIM(2)
	pa, pb, err := ExpectedPayoffs(a, b, game.Standard(), 64, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	qb, qa, err := ExpectedPayoffs(b, a, game.Standard(), 64, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if !near(pa, qa, 1e-9) || !near(pb, qb, 1e-9) {
		t.Fatalf("payoffs not symmetric: (%v,%v) vs (%v,%v)", pa, pb, qa, qb)
	}
}

func TestGrimCollapsesUnderNoiseWSLSDoesNot(t *testing.T) {
	// The quantitative heart of the WSLS story: under execution errors,
	// mutual WSLS play retains most of the cooperative payoff while mutual
	// GRIM play collapses toward mutual defection.
	const rounds = 200
	const noise = 0.05
	wsls, _, err := ExpectedPayoffs(strategy.WSLS(1), strategy.WSLS(1), game.Standard(), rounds, noise)
	if err != nil {
		t.Fatal(err)
	}
	grim, _, err := ExpectedPayoffs(strategy.GRIM(1), strategy.GRIM(1), game.Standard(), rounds, noise)
	if err != nil {
		t.Fatal(err)
	}
	if wsls <= grim {
		t.Fatalf("WSLS self-play (%v) should out-earn GRIM self-play (%v) under noise", wsls, grim)
	}
	if wsls < 0.8*3*rounds {
		t.Fatalf("noisy WSLS self-play (%v) lost too much of the cooperative payoff", wsls)
	}
	// Memory-one GRIM reduces to TFT, whose mutual play under errors falls
	// into alternating retaliation (about 2 points per round instead of 3).
	if grim > 0.75*3*rounds {
		t.Fatalf("noisy GRIM self-play (%v) should collapse well below full cooperation", grim)
	}
}

func TestInvasionAllDIntoCooperators(t *testing.T) {
	// ALLD invades ALLC trivially.
	rep, err := Invasion(strategy.AllC(1), strategy.AllD(1), game.Standard(), 200, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CanInvade {
		t.Fatalf("ALLD should invade ALLC: %+v", rep)
	}
	// ALLD cannot invade a WSLS population under modest noise: the
	// cooperative cluster out-earns the lone defector.
	rep, err = Invasion(strategy.WSLS(1), strategy.AllD(1), game.Standard(), 200, 50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CanInvade {
		t.Fatalf("ALLD should not invade a WSLS population: %+v", rep)
	}
	if _, err := Invasion(strategy.AllC(1), strategy.AllD(1), game.Standard(), 200, 1, 0); err == nil {
		t.Fatal("accepted a population of one")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		p    *strategy.Pure
		want Traits
	}{
		{"AllC", strategy.AllC(1), Traits{Nice: true, Retaliatory: false, Forgiving: true, DefectionRate: 0}},
		{"AllD", strategy.AllD(1), Traits{Nice: false, Retaliatory: true, Forgiving: false, DefectionRate: 1}},
		{"TFT", strategy.TFT(1), Traits{Nice: true, Retaliatory: true, Forgiving: false, DefectionRate: 0.5}},
		// WSLS is structurally "not nice" under the state-based definition:
		// in state DC (its own unilateral defection against a cooperator) it
		// repeats the defection, even though it never defects first when
		// play starts from mutual cooperation.
		{"WSLS", strategy.WSLS(1), Traits{Nice: false, Retaliatory: true, Forgiving: true, DefectionRate: 0.5}},
		{"GRIM", strategy.GRIM(1), Traits{Nice: true, Retaliatory: true, Forgiving: false, DefectionRate: 0.5}},
	}
	for _, tc := range cases {
		got := Classify(tc.p)
		if got != tc.want {
			t.Errorf("%s: Classify = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	// TF2T forgives a single defection: nice, retaliatory (after two
	// defections) and forgiving.
	tf2t, err := strategy.TF2T(2)
	if err != nil {
		t.Fatal(err)
	}
	got := Classify(tf2t)
	if !got.Nice || !got.Forgiving || !got.Retaliatory {
		t.Fatalf("TF2T traits = %+v", got)
	}
}

func TestCooperationIndex(t *testing.T) {
	// Two ALLC players always cooperate.
	idx, err := CooperationIndex(strategy.AllC(1), strategy.AllC(1), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("AllC cooperation index = %v", idx)
	}
	// ALLD never cooperates.
	idx, err = CooperationIndex(strategy.AllD(1), strategy.AllC(1), 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("AllD cooperation index = %v", idx)
	}
	// Under noise, WSLS pairs stay highly cooperative while GRIM pairs do
	// not.
	wsls, err := CooperationIndex(strategy.WSLS(1), strategy.WSLS(1), 200, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	grim, err := CooperationIndex(strategy.GRIM(1), strategy.GRIM(1), 200, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if wsls <= grim {
		t.Fatalf("WSLS cooperation (%v) should exceed GRIM cooperation (%v) under noise", wsls, grim)
	}
	if _, err := CooperationIndex(nil, strategy.AllC(1), 10, 0); err == nil {
		t.Fatal("accepted nil strategy")
	}
	if _, err := CooperationIndex(strategy.AllC(1), strategy.AllC(2), 10, 0); err == nil {
		t.Fatal("accepted mismatched memory")
	}
	if _, err := CooperationIndex(strategy.AllC(1), strategy.AllC(1), 0, 0); err == nil {
		t.Fatal("accepted zero rounds")
	}
	if _, err := CooperationIndex(strategy.AllC(1), strategy.AllC(1), 10, 2); err == nil {
		t.Fatal("accepted invalid noise")
	}
}

// Property: exact expected payoffs are always within the per-round bounds of
// the payoff matrix, and total probability mass is conserved (payoffs scale
// linearly with rounds for ALLC/ALLD pairs).
func TestQuickExpectedPayoffBounds(t *testing.T) {
	f := func(seedA, seedB uint64, noiseSel uint8, roundSel uint8) bool {
		rounds := int(roundSel%50) + 1
		noise := float64(noiseSel%100) / 100
		a := strategy.RandomPure(1, rng.New(seedA))
		b := strategy.RandomPure(1, rng.New(seedB))
		pa, pb, err := ExpectedPayoffs(a, b, game.Standard(), rounds, noise)
		if err != nil {
			return false
		}
		maxTotal := float64(rounds) * game.Standard().MaxPerRound()
		minTotal := float64(rounds) * game.Standard().MinPerRound()
		return pa >= minTotal-1e-9 && pa <= maxTotal+1e-9 && pb >= minTotal-1e-9 && pb <= maxTotal+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: noiseless exact payoffs equal the simulated deterministic game
// for random memory-one and memory-two strategies.
func TestQuickExactMatchesDeterministicSimulation(t *testing.T) {
	engines := map[int]*game.Engine{}
	for mem := 1; mem <= 2; mem++ {
		e, err := game.NewEngine(game.EngineConfig{Rounds: 60, MemorySteps: mem})
		if err != nil {
			t.Fatal(err)
		}
		engines[mem] = e
	}
	f := func(seedA, seedB uint64, memSel uint8) bool {
		mem := int(memSel%2) + 1
		a := strategy.RandomPure(mem, rng.New(seedA))
		b := strategy.RandomPure(mem, rng.New(seedB))
		pa, pb, err := ExpectedPayoffs(a, b, game.Standard(), 60, 0)
		if err != nil {
			return false
		}
		res, err := engines[mem].Play(a, b, nil)
		if err != nil {
			return false
		}
		return near(pa, res.FitnessA, 1e-9) && near(pb, res.FitnessB, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpectedPayoffsMemoryOne(b *testing.B) {
	a, c := strategy.WSLS(1), strategy.GRIM(1)
	for i := 0; i < b.N; i++ {
		if _, _, err := ExpectedPayoffs(a, c, game.Standard(), 200, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpectedPayoffsMemoryFour(b *testing.B) {
	a, c := strategy.WSLS(4), strategy.GRIM(4)
	for i := 0; i < b.N; i++ {
		if _, _, err := ExpectedPayoffs(a, c, game.Standard(), 200, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// near reports whether two floats are within tol of each other.
func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
