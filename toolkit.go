package evogame

import (
	"fmt"
	"sort"

	"evogame/internal/analysis"
	"evogame/internal/game"
	"evogame/internal/strategy"
	"evogame/internal/tournament"
)

// This file exposes the analytical toolkit that complements the simulation
// engines: exact expected payoffs of strategy pairs (the classical analysis
// that remains tractable at low memory depth), invasion analysis, strategy
// trait classification, and Axelrod-style round-robin tournaments.

// ExactPayoffs returns the exact expected total payoffs of two pure
// strategies (move-table strings) over the given number of rounds with the
// given per-move error probability, computed from the joint Markov chain
// over game states rather than by sampling.
func ExactPayoffs(strategyA, strategyB string, memSteps, rounds int, noise float64) (payoffA, payoffB float64, err error) {
	a, err := strategy.ParsePure(memSteps, strategyA)
	if err != nil {
		return 0, 0, err
	}
	b, err := strategy.ParsePure(memSteps, strategyB)
	if err != nil {
		return 0, 0, err
	}
	return analysis.ExpectedPayoffs(a, b, game.Standard(), rounds, noise)
}

// CanInvade reports whether a single mutant Strategy Set can invade a
// resident population of populationSize-1 Strategy Sets under the
// framework's fitness definition, using exact expected payoffs.
func CanInvade(resident, mutant string, memSteps, rounds, populationSize int, noise float64) (bool, error) {
	r, err := strategy.ParsePure(memSteps, resident)
	if err != nil {
		return false, err
	}
	m, err := strategy.ParsePure(memSteps, mutant)
	if err != nil {
		return false, err
	}
	rep, err := analysis.Invasion(r, m, game.Standard(), rounds, populationSize, noise)
	if err != nil {
		return false, err
	}
	return rep.CanInvade, nil
}

// StrategyTraits describes the structural properties of a pure strategy.
type StrategyTraits struct {
	// Nice strategies cooperate in every state whose visible history
	// contains no opponent defection.
	Nice bool
	// Retaliatory strategies defect in at least one state whose most recent
	// opponent move was a defection.
	Retaliatory bool
	// Forgiving strategies cooperate in at least one state whose visible
	// history contains an opponent defection.
	Forgiving bool
	// DefectionRate is the fraction of states in which the strategy defects.
	DefectionRate float64
}

// ClassifyStrategy computes the structural traits of a pure strategy given
// as a move-table string.
func ClassifyStrategy(moveTable string, memSteps int) (StrategyTraits, error) {
	p, err := strategy.ParsePure(memSteps, moveTable)
	if err != nil {
		return StrategyTraits{}, err
	}
	t := analysis.Classify(p)
	return StrategyTraits{
		Nice:          t.Nice,
		Retaliatory:   t.Retaliatory,
		Forgiving:     t.Forgiving,
		DefectionRate: t.DefectionRate,
	}, nil
}

// CooperationIndex returns the average probability that strategyA cooperates
// over a game against strategyB under the given noise.
func CooperationIndex(strategyA, strategyB string, memSteps, rounds int, noise float64) (float64, error) {
	a, err := strategy.ParsePure(memSteps, strategyA)
	if err != nil {
		return 0, err
	}
	b, err := strategy.ParsePure(memSteps, strategyB)
	if err != nil {
		return 0, err
	}
	return analysis.CooperationIndex(a, b, rounds, noise)
}

// TournamentConfig configures a round-robin tournament.
type TournamentConfig struct {
	// MemorySteps is the memory depth shared by all entrants (0 selects 1).
	MemorySteps int
	// Rounds per game (0 selects the paper's 200).
	Rounds int
	// Repetitions of each pairing (0 selects 1; Axelrod used 5).
	Repetitions int
	// Noise is the per-move error probability.
	Noise float64
	// IncludeSelfPlay also plays each entrant against itself.
	IncludeSelfPlay bool
	// Seed drives noisy games.
	Seed uint64
}

// TournamentStanding is one row of a tournament ranking.
type TournamentStanding struct {
	Name        string
	TotalScore  float64
	MeanPerGame float64
	Games       int
	Wins        int
	Draws       int
}

// RunTournament plays an Axelrod-style round-robin tournament between named
// pure strategies given as move-table strings, returning the standings
// sorted from best to worst.
func RunTournament(entrants map[string]string, cfg TournamentConfig) ([]TournamentStanding, error) {
	if len(entrants) < 2 {
		return nil, fmt.Errorf("evogame: a tournament needs at least 2 entrants")
	}
	mem := cfg.MemorySteps
	if mem == 0 {
		mem = 1
	}
	// Deterministic entrant order: sort names.
	names := make([]string, 0, len(entrants))
	for name := range entrants {
		names = append(names, name)
	}
	sort.Strings(names)
	list := make([]tournament.Entrant, 0, len(names))
	for _, name := range names {
		p, err := strategy.ParsePure(mem, entrants[name])
		if err != nil {
			return nil, fmt.Errorf("evogame: entrant %q: %w", name, err)
		}
		list = append(list, tournament.Entrant{Name: name, Strategy: p})
	}
	res, err := tournament.Run(list, tournament.Config{
		Rounds:          cfg.Rounds,
		Repetitions:     cfg.Repetitions,
		Noise:           cfg.Noise,
		IncludeSelfPlay: cfg.IncludeSelfPlay,
		MemorySteps:     mem,
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]TournamentStanding, len(res.Standings))
	for i, s := range res.Standings {
		out[i] = TournamentStanding{
			Name: s.Name, TotalScore: s.TotalScore, MeanPerGame: s.MeanPerGame,
			Games: s.Games, Wins: s.Wins, Draws: s.Draws,
		}
	}
	return out, nil
}

// ClassicTournamentEntrants returns the classic field (ALLC, ALLD, TFT,
// GRIM, WSLS, Alternator) as move-table strings for the given memory depth,
// ready to pass to RunTournament.
func ClassicTournamentEntrants(memSteps int) (map[string]string, error) {
	if memSteps < 1 || memSteps > MaxMemorySteps {
		return nil, fmt.Errorf("evogame: memory steps %d out of range [1,%d]", memSteps, MaxMemorySteps)
	}
	out := map[string]string{}
	for _, e := range tournament.ClassicField(memSteps) {
		out[e.Name] = e.Strategy.String()
	}
	return out, nil
}
