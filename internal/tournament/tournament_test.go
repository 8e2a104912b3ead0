package tournament

import (
	"testing"

	"evogame/internal/strategy"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(nil, Config{}); err == nil {
		t.Fatal("accepted no entrants")
	}
	one := []Entrant{{Name: "solo", Strategy: strategy.TFT(1)}}
	if _, err := Run(one, Config{}); err == nil {
		t.Fatal("accepted a single entrant")
	}
	bad := []Entrant{{Name: "a", Strategy: strategy.TFT(1)}, {Name: "b", Strategy: nil}}
	if _, err := Run(bad, Config{}); err == nil {
		t.Fatal("accepted a nil strategy")
	}
	unnamed := []Entrant{{Name: "", Strategy: strategy.TFT(1)}, {Name: "b", Strategy: strategy.AllC(1)}}
	if _, err := Run(unnamed, Config{}); err == nil {
		t.Fatal("accepted an unnamed entrant")
	}
	dup := []Entrant{{Name: "x", Strategy: strategy.TFT(1)}, {Name: "x", Strategy: strategy.AllC(1)}}
	if _, err := Run(dup, Config{}); err == nil {
		t.Fatal("accepted duplicate names")
	}
	mixedMem := []Entrant{{Name: "a", Strategy: strategy.TFT(1)}, {Name: "b", Strategy: strategy.AllC(2)}}
	if _, err := Run(mixedMem, Config{MemorySteps: 1}); err == nil {
		t.Fatal("accepted mismatched memory depths")
	}
}

func TestTFTAndGRIMTopTheClassicNoiselessField(t *testing.T) {
	// With the paper's payoff values and no errors, the retaliating
	// cooperators (TFT and memory-one GRIM, which coincide) top the classic
	// field, and the unconditional cooperator is never the winner.
	res, err := Run(ClassicField(1), Config{Rounds: 200, MemorySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	winner := res.Standings[0].Name
	if winner != "TFT" && winner != "GRIM" {
		t.Fatalf("winner = %q, want TFT or GRIM; standings: %+v", winner, res.Standings)
	}
	byName := map[string]Standing{}
	for _, s := range res.Standings {
		byName[s.Name] = s
	}
	if byName["TFT"].TotalScore < byName["ALLD"].TotalScore {
		t.Fatal("TFT should out-score ALLD in the classic field")
	}
	if byName["WSLS"].TotalScore < byName["ALLD"].TotalScore {
		t.Fatal("WSLS should out-score ALLD in the classic field")
	}
	if winner == "ALLC" {
		t.Fatal("the unconditional cooperator should not win")
	}
}

func TestWSLSBeatsTFTUnderNoise(t *testing.T) {
	// The WSLS result the paper validates against: with execution errors,
	// WSLS out-earns TFT in a cooperative field because it recovers mutual
	// cooperation after an error instead of echoing retaliation.
	entrants := []Entrant{
		{Name: "TFT", Strategy: strategy.TFT(1)},
		{Name: "WSLS", Strategy: strategy.WSLS(1)},
		{Name: "ALLC", Strategy: strategy.AllC(1)},
		{Name: "GRIM", Strategy: strategy.GRIM(1)},
	}
	res, err := Run(entrants, Config{Rounds: 200, Repetitions: 20, Noise: 0.03, IncludeSelfPlay: true, MemorySteps: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Standing{}
	for _, s := range res.Standings {
		byName[s.Name] = s
	}
	if byName["WSLS"].TotalScore <= byName["TFT"].TotalScore {
		t.Fatalf("WSLS (%v) should out-score TFT (%v) under noise",
			byName["WSLS"].TotalScore, byName["TFT"].TotalScore)
	}
}

func TestScoresMatrixConsistency(t *testing.T) {
	res, err := Run(ClassicField(1), Config{Rounds: 100, MemorySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 6 {
		t.Fatalf("score matrix has %d rows", len(res.Scores))
	}
	// Row sums must equal the entrant totals.
	nameToIdx := map[string]int{}
	for i, e := range ClassicField(1) {
		nameToIdx[e.Name] = i
	}
	for _, s := range res.Standings {
		i := nameToIdx[s.Name]
		sum := 0.0
		for j := range res.Scores[i] {
			sum += res.Scores[i][j]
		}
		if sum != s.TotalScore {
			t.Fatalf("%s: row sum %v != total %v", s.Name, sum, s.TotalScore)
		}
		if s.Games != 5 {
			t.Fatalf("%s played %d games, want 5 (no self-play, 1 repetition)", s.Name, s.Games)
		}
	}
	// Diagonal must be zero without self-play.
	for i := range res.Scores {
		if res.Scores[i][i] != 0 {
			t.Fatal("diagonal non-zero without self-play")
		}
	}
}

func TestSelfPlayAndRepetitions(t *testing.T) {
	entrants := []Entrant{
		{Name: "A", Strategy: strategy.AllC(1)},
		{Name: "B", Strategy: strategy.AllD(1)},
	}
	res, err := Run(entrants, Config{Rounds: 10, Repetitions: 3, IncludeSelfPlay: true, MemorySteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Standings {
		// Each entrant plays the other 3 times and itself 3 times.
		if s.Games != 6 {
			t.Fatalf("%s played %d games, want 6", s.Name, s.Games)
		}
	}
	byName := map[string]Standing{}
	for _, s := range res.Standings {
		byName[s.Name] = s
	}
	// AllD: 3*(10*4) vs AllC + 3*(10*1) self = 150; AllC: 3*0 + 3*30 = 90.
	if byName["B"].TotalScore != 150 || byName["A"].TotalScore != 90 {
		t.Fatalf("scores = %+v", byName)
	}
	if byName["B"].Wins != 3 {
		t.Fatalf("AllD should win its 3 games against AllC, got %d", byName["B"].Wins)
	}
	if byName["B"].Draws != 3 || byName["A"].Draws != 3 {
		t.Fatal("self-play games should be draws")
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	run := func() Result {
		res, err := Run(ClassicField(1), Config{Rounds: 100, Repetitions: 5, Noise: 0.05, MemorySteps: 1, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Standings {
		if a.Standings[i] != b.Standings[i] {
			t.Fatalf("noisy tournaments with the same seed diverge at rank %d", i)
		}
	}
}

func TestMemoryTwoField(t *testing.T) {
	entrants := append(ClassicField(2), Entrant{Name: "TF2T", Strategy: mustTF2T(t)})
	res, err := Run(entrants, Config{Rounds: 100, MemorySteps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Standings) != 7 {
		t.Fatalf("standings has %d rows", len(res.Standings))
	}
	if res.Standings[0].Name == "ALLC" {
		t.Fatal("ALLC should not win the memory-two field")
	}
}

func mustTF2T(t *testing.T) *strategy.Pure {
	t.Helper()
	p, err := strategy.TF2T(2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestClassicFieldShape(t *testing.T) {
	field := ClassicField(3)
	if len(field) != 6 {
		t.Fatalf("classic field has %d entrants", len(field))
	}
	for _, e := range field {
		if e.Strategy.MemorySteps() != 3 {
			t.Fatalf("%s has memory %d", e.Name, e.Strategy.MemorySteps())
		}
	}
}

func BenchmarkClassicTournament(b *testing.B) {
	field := ClassicField(1)
	for i := 0; i < b.N; i++ {
		if _, err := Run(field, Config{Rounds: 200, Repetitions: 5, MemorySteps: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
