// Package tournament implements Axelrod-style round-robin tournaments of
// Iterated Prisoner's Dilemma strategies.  The paper motivates the study of
// memory-n strategies with Axelrod's tournaments (Section III-B, where
// Tit-For-Tat repeatedly emerged as the winner); this package provides that
// experimental setting as a library feature: every entrant plays every other
// entrant (optionally itself) for a configurable number of repetitions, and
// the accumulated scores produce a ranking.
package tournament

import (
	"fmt"
	"sort"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// Entrant is one tournament participant.
type Entrant struct {
	Name     string
	Strategy strategy.Strategy
}

// Config controls a round-robin tournament.
type Config struct {
	// Rounds is the number of IPD rounds per game (the paper and Axelrod's
	// tournaments use 200).  Zero selects 200.
	Rounds int
	// Repetitions is the number of times each pairing is played (Axelrod
	// used five).  Zero selects 1.
	Repetitions int
	// Noise is the per-move execution error probability.
	Noise float64
	// IncludeSelfPlay also plays each entrant against a copy of itself.
	IncludeSelfPlay bool
	// MemorySteps is the memory depth shared by all entrants.
	MemorySteps int
	// Seed drives the execution errors of noisy games; a noiseless
	// tournament draws nothing from it.
	Seed uint64
}

// Standing is one row of the final ranking.
type Standing struct {
	Name string
	// TotalScore is the summed payoff across all games.
	TotalScore float64
	// MeanPerGame is the mean payoff per game played.
	MeanPerGame float64
	// Games is the number of games the entrant played.
	Games int
	// Wins counts games in which the entrant strictly out-scored its
	// opponent; Draws counts equal scores.
	Wins, Draws int
}

// Result is the outcome of a tournament.
type Result struct {
	// Standings is sorted from highest to lowest total score (ties broken by
	// name for determinism).
	Standings []Standing
	// Scores[i][j] is the total payoff entrant i earned against entrant j
	// across all repetitions; the diagonal is zero unless self-play is
	// enabled.
	Scores [][]float64
}

// Run plays the round-robin tournament.
func Run(entrants []Entrant, cfg Config) (Result, error) {
	if len(entrants) < 2 {
		return Result{}, fmt.Errorf("tournament: need at least 2 entrants, got %d", len(entrants))
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = game.DefaultRounds
	}
	if cfg.Repetitions == 0 {
		cfg.Repetitions = 1
	}
	if cfg.Repetitions < 0 || cfg.Rounds < 0 {
		return Result{}, fmt.Errorf("tournament: rounds and repetitions must be positive")
	}
	if cfg.MemorySteps == 0 {
		cfg.MemorySteps = 1
	}
	names := map[string]bool{}
	for i, e := range entrants {
		if e.Strategy == nil {
			return Result{}, fmt.Errorf("tournament: entrant %d has a nil strategy", i)
		}
		if e.Name == "" {
			return Result{}, fmt.Errorf("tournament: entrant %d has no name", i)
		}
		if names[e.Name] {
			return Result{}, fmt.Errorf("tournament: duplicate entrant name %q", e.Name)
		}
		names[e.Name] = true
		if e.Strategy.MemorySteps() != cfg.MemorySteps {
			return Result{}, fmt.Errorf("tournament: entrant %q has memory %d, tournament uses %d",
				e.Name, e.Strategy.MemorySteps(), cfg.MemorySteps)
		}
	}
	eng, err := game.NewEngine(game.EngineConfig{
		Rounds:      cfg.Rounds,
		MemorySteps: cfg.MemorySteps,
		Noise:       cfg.Noise,
	})
	if err != nil {
		return Result{}, err
	}
	src := rng.New(cfg.Seed)

	n := len(entrants)
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, n)
	}
	standings := make([]Standing, n)
	for i := range standings {
		standings[i].Name = entrants[i].Name
	}

	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if i == j && !cfg.IncludeSelfPlay {
				continue
			}
			for rep := 0; rep < cfg.Repetitions; rep++ {
				var gameSrc *rng.Source
				if cfg.Noise > 0 {
					gameSrc = src.Split()
				}
				res, err := eng.Play(entrants[i].Strategy, entrants[j].Strategy, gameSrc)
				if err != nil {
					return Result{}, fmt.Errorf("tournament: %q vs %q: %w", entrants[i].Name, entrants[j].Name, err)
				}
				scores[i][j] += res.FitnessA
				standings[i].TotalScore += res.FitnessA
				standings[i].Games++
				if i != j {
					scores[j][i] += res.FitnessB
					standings[j].TotalScore += res.FitnessB
					standings[j].Games++
				}
				switch {
				case res.FitnessA > res.FitnessB:
					standings[i].Wins++
				case res.FitnessB > res.FitnessA:
					if i != j {
						standings[j].Wins++
					}
				default:
					standings[i].Draws++
					if i != j {
						standings[j].Draws++
					}
				}
			}
		}
	}
	for i := range standings {
		if standings[i].Games > 0 {
			standings[i].MeanPerGame = standings[i].TotalScore / float64(standings[i].Games)
		}
	}
	sort.Slice(standings, func(a, b int) bool {
		if standings[a].TotalScore != standings[b].TotalScore {
			return standings[a].TotalScore > standings[b].TotalScore
		}
		return standings[a].Name < standings[b].Name
	})
	return Result{Standings: standings, Scores: scores}, nil
}

// ClassicField returns the classic memory-n entrants used by the examples
// and tests: ALLC, ALLD, TFT, GRIM, WSLS and the Alternator.
func ClassicField(memSteps int) []Entrant {
	return []Entrant{
		{Name: "ALLC", Strategy: strategy.AllC(memSteps)},
		{Name: "ALLD", Strategy: strategy.AllD(memSteps)},
		{Name: "TFT", Strategy: strategy.TFT(memSteps)},
		{Name: "GRIM", Strategy: strategy.GRIM(memSteps)},
		{Name: "WSLS", Strategy: strategy.WSLS(memSteps)},
		{Name: "ALT", Strategy: strategy.Alternator(memSteps)},
	}
}
