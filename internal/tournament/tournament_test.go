package tournament

import (
	"math"
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

// TestNoisyClassicFieldGolden pins a noisy self-play tournament to the
// exact float bits it produced when the tournament still accepted mixed
// strategies, so the source-split rule (one split per game, only under
// noise) and the table-based replay consume the stream as they did then.
func TestNoisyClassicFieldGolden(t *testing.T) {
	res, err := Run(ClassicField(1), Config{Rounds: 100, Repetitions: 5, Noise: 0.05, IncludeSelfPlay: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantScores := [6][6]uint64{
		{0x4096240000000000, 0x4057400000000000, 0x4095bc0000000000, 0x40959c0000000000, 0x4084a80000000000, 0x4087d00000000000},
		{0x409dc40000000000, 0x4081180000000000, 0x4083d80000000000, 0x4083980000000000, 0x4092cc0000000000, 0x40930c0000000000},
		{0x40970c0000000000, 0x4080f80000000000, 0x408f780000000000, 0x408fe80000000000, 0x408d400000000000, 0x408f380000000000},
		{0x40970c0000000000, 0x4080b80000000000, 0x4090240000000000, 0x4090a00000000000, 0x408ed00000000000, 0x408f480000000000},
		{0x409ac40000000000, 0x4075700000000000, 0x408d400000000000, 0x408f100000000000, 0x4094a80000000000, 0x408f000000000000},
		{0x409a880000000000, 0x4074f00000000000, 0x408f180000000000, 0x408f280000000000, 0x408f400000000000, 0x408f580000000000},
	}
	for i, row := range wantScores {
		for j, want := range row {
			if got := math.Float64bits(res.Scores[i][j]); got != want {
				t.Errorf("Scores[%d][%d] = %#016x (%v), want %#016x", i, j, got, res.Scores[i][j], want)
			}
		}
	}
	wantStandings := []struct {
		name              string
		total, mean       uint64
		games, wins, draw int
	}{
		{"WSLS", 0x40b89c0000000000, 0x406a400000000000, 30, 13, 5},
		{"ALLD", 0x40b7f80000000000, 0x4069911111111111, 30, 27, 0},
		{"GRIM", 0x40b7ce0000000000, 0x4069644444444444, 30, 10, 9},
		{"ALT", 0x40b78c0000000000, 0x40691dddddddddde, 30, 13, 5},
		{"TFT", 0x40b75d0000000000, 0x4068ebbbbbbbbbbc, 30, 14, 0},
		{"ALLC", 0x40b64b0000000000, 0x4067c77777777777, 30, 1, 0},
	}
	for k, w := range wantStandings {
		s := res.Standings[k]
		if s.Name != w.name || math.Float64bits(s.TotalScore) != w.total || math.Float64bits(s.MeanPerGame) != w.mean ||
			s.Games != w.games || s.Wins != w.wins || s.Draws != w.draw {
			t.Errorf("standing %d = %+v, want %s total %#016x mean %#016x games %d wins %d draws %d",
				k, s, w.name, w.total, w.mean, w.games, w.wins, w.draw)
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
