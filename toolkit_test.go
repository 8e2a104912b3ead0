package evogame

import (
	"math"
	"testing"
)

func TestExactPayoffsFacade(t *testing.T) {
	// AllD vs AllC over 200 noiseless rounds: 800 vs 0.
	pa, pb, err := ExactPayoffs("1111", "0000", 1, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 800 || pb != 0 {
		t.Fatalf("AllD vs AllC = (%v,%v)", pa, pb)
	}
	if _, _, err := ExactPayoffs("11", "0000", 1, 200, 0); err == nil {
		t.Fatal("accepted a malformed strategy")
	}
	if _, _, err := ExactPayoffs("1111", "00x0", 1, 200, 0); err == nil {
		t.Fatal("accepted a malformed opponent")
	}
}

func TestExactPayoffsMatchSimulation(t *testing.T) {
	// WSLS self-play under noise: the exact value must sit near the
	// noiseless 600 but strictly below it.
	wsls, _ := NamedStrategy("wsls", 1)
	pa, pb, err := ExactPayoffs(wsls, wsls, 1, 200, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if pa != pb {
		t.Fatalf("symmetric pair with symmetric noise should have equal payoffs: %v vs %v", pa, pb)
	}
	if pa >= 600 || pa < 500 {
		t.Fatalf("noisy WSLS self-play payoff = %v, want slightly below 600", pa)
	}
}

func TestCanInvadeFacade(t *testing.T) {
	alld, _ := NamedStrategy("alld", 1)
	allc, _ := NamedStrategy("allc", 1)
	wsls, _ := NamedStrategy("wsls", 1)
	invades, err := CanInvade(allc, alld, 1, 200, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !invades {
		t.Fatal("ALLD should invade ALLC")
	}
	invades, err = CanInvade(wsls, alld, 1, 200, 50, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if invades {
		t.Fatal("ALLD should not invade WSLS")
	}
	if _, err := CanInvade("bad", alld, 1, 200, 50, 0); err == nil {
		t.Fatal("accepted a malformed resident")
	}
	if _, err := CanInvade(wsls, "bad", 1, 200, 50, 0); err == nil {
		t.Fatal("accepted a malformed mutant")
	}
}

func TestClassifyStrategyFacade(t *testing.T) {
	tft, _ := NamedStrategy("tft", 1)
	traits, err := ClassifyStrategy(tft, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !traits.Nice || !traits.Retaliatory || traits.Forgiving || traits.DefectionRate != 0.5 {
		t.Fatalf("TFT traits = %+v", traits)
	}
	if _, err := ClassifyStrategy("0", 1); err == nil {
		t.Fatal("accepted a malformed strategy")
	}
}

func TestCooperationIndexFacade(t *testing.T) {
	allc, _ := NamedStrategy("allc", 1)
	alld, _ := NamedStrategy("alld", 1)
	idx, err := CooperationIndex(allc, alld, 1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("AllC cooperation index = %v", idx)
	}
	idx, err = CooperationIndex(alld, allc, 1, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("AllD cooperation index = %v", idx)
	}
	if _, err := CooperationIndex("x", allc, 1, 100, 0); err == nil {
		t.Fatal("accepted a malformed strategy")
	}
	if _, err := CooperationIndex(allc, "x", 1, 100, 0); err == nil {
		t.Fatal("accepted a malformed opponent")
	}
}

func TestRunTournamentFacade(t *testing.T) {
	entrants, err := ClassicTournamentEntrants(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entrants) != 6 {
		t.Fatalf("classic field has %d entrants", len(entrants))
	}
	standings, err := RunTournament(entrants, TournamentConfig{Rounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(standings) != 6 {
		t.Fatalf("standings has %d rows", len(standings))
	}
	if standings[0].Name == "ALLC" {
		t.Fatal("ALLC should not win the classic noiseless field")
	}
	total := 0.0
	for _, s := range standings {
		total += s.TotalScore
		if s.Games != 5 {
			t.Fatalf("%s played %d games", s.Name, s.Games)
		}
	}
	if total <= 0 {
		t.Fatal("tournament produced no payoff")
	}
	// Standings must be sorted.
	for i := 1; i < len(standings); i++ {
		if standings[i].TotalScore > standings[i-1].TotalScore {
			t.Fatal("standings not sorted by score")
		}
	}
}

func TestRunTournamentNoisyWSLSBeatsTFT(t *testing.T) {
	wsls, _ := NamedStrategy("wsls", 1)
	tft, _ := NamedStrategy("tft", 1)
	allc, _ := NamedStrategy("allc", 1)
	standings, err := RunTournament(map[string]string{
		"WSLS": wsls, "TFT": tft, "ALLC": allc,
	}, TournamentConfig{Rounds: 200, Repetitions: 20, Noise: 0.03, IncludeSelfPlay: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]float64{}
	for _, s := range standings {
		scores[s.Name] = s.TotalScore
	}
	if scores["WSLS"] <= scores["TFT"] {
		t.Fatalf("WSLS (%v) should out-score TFT (%v) under noise", scores["WSLS"], scores["TFT"])
	}
}

func TestRunTournamentValidation(t *testing.T) {
	if _, err := RunTournament(map[string]string{"only": "0101"}, TournamentConfig{}); err == nil {
		t.Fatal("accepted a single entrant")
	}
	if _, err := RunTournament(map[string]string{"a": "0101", "b": "zz"}, TournamentConfig{}); err == nil {
		t.Fatal("accepted a malformed entrant")
	}
	if _, err := ClassicTournamentEntrants(0); err == nil {
		t.Fatal("accepted memory 0")
	}
}

func TestRunTournamentDeterministic(t *testing.T) {
	entrants, _ := ClassicTournamentEntrants(1)
	run := func() []TournamentStanding {
		s, err := RunTournament(entrants, TournamentConfig{Rounds: 100, Repetitions: 3, Noise: 0.05, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tournament results differ at rank %d despite identical seeds", i)
		}
	}
}

func TestExactPayoffsConsistentWithSimulateDynamics(t *testing.T) {
	// Cross-check facade layers: the exact pairwise payoff ordering between
	// WSLS and ALLD must agree with what the population engine does when the
	// two strategies compete (the WSLS majority persists).
	wsls, _ := NamedStrategy("wsls", 1)
	alld, _ := NamedStrategy("alld", 1)
	wW, _, err := ExactPayoffs(wsls, wsls, 1, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dW, _, err := ExactPayoffs(alld, wsls, 1, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	dd, _, err := ExactPayoffs(alld, alld, 1, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// In a WSLS-majority population the WSLS cluster earns close to mutual
	// cooperation against itself, which exceeds what ALLD extracts from the
	// mix; this is the analytic counterpart of TestWSLSMajorityResistsAllD.
	if !(wW > dd && wW > 0.75*(dW+dd)) {
		t.Fatalf("exact payoffs do not support WSLS stability: wW=%v dW=%v dd=%v", wW, dW, dd)
	}
	if math.IsNaN(wW) || math.IsNaN(dW) || math.IsNaN(dd) {
		t.Fatal("NaN payoff")
	}
}

// TestFacadeRejectsMemoryOutOfRange calls every facade entry point that
// takes a memory depth with depths outside [1,6]: each must return an
// error and none may panic.  RunTournament reads MemorySteps 0 as its
// documented default of one, so it is called at -1 and 7 only.
func TestFacadeRejectsMemoryOutOfRange(t *testing.T) {
	calls := map[string]func(mem int) error{
		"ExactPayoffs": func(mem int) error {
			_, _, err := ExactPayoffs("0110", "0101", mem, 10, 0)
			return err
		},
		"CooperationIndex": func(mem int) error {
			_, err := CooperationIndex("0110", "0101", mem, 10, 0)
			return err
		},
		"CanInvade": func(mem int) error {
			_, err := CanInvade("0110", "0101", mem, 10, 8, 0)
			return err
		},
		"ClassifyStrategy": func(mem int) error {
			_, err := ClassifyStrategy("0110", mem)
			return err
		},
		"NamedStrategy": func(mem int) error {
			_, err := NamedStrategy("wsls", mem)
			return err
		},
		"RunTournament": func(mem int) error {
			_, err := RunTournament(map[string]string{"a": "0110", "b": "0101"}, TournamentConfig{MemorySteps: mem})
			return err
		},
		"RatioTable": func(mem int) error {
			_, err := RatioTable(ScalingOptions{}, []float64{1, 2}, 10, mem, 16)
			return err
		},
	}
	for name, call := range calls {
		for _, mem := range []int{0, -1, 7} {
			if name == "RunTournament" && mem == 0 {
				continue
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s at memory %d panicked: %v", name, mem, r)
					}
				}()
				if err := call(mem); err == nil {
					t.Errorf("%s accepted memory %d", name, mem)
				}
			}()
		}
	}
}
