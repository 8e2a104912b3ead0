// Package baseline implements the "traditional" algorithm the paper uses as
// its point of comparison (Section IV-A): every strategy in the population
// is assigned to a single agent, that agent plays all other agents' strategies
// serially, and the selection and mutation steps run at the end of each
// generation.  Parallelising this layout caps the useful processor count at
// the number of agents and forgoes the game-level parallelism that the SSet
// abstraction exposes; the ablation benchmark compares the two.
package baseline

import (
	"evogame/internal/checkpoint"

	"evogame/internal/game"
	"evogame/internal/nature"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// Config describes a baseline simulation.  The dynamics parameters mirror
// population.Config so results are comparable.
type Config struct {
	NumAgents    int
	MemorySteps  int
	Rounds       int
	Noise        float64
	PCRate       float64
	MutationRate float64
	Beta         float64
	Seed         uint64
	// InitialStrategies optionally fixes each agent's starting strategy.
	InitialStrategies []strategy.Strategy
}

// Model is the traditional one-agent-per-strategy simulation.
type Model struct {
	cfg    Config
	engine *game.Engine
	nat    *nature.Agent
	agents []strategy.Strategy
	src    *rng.Source
	gen    int
	games  int64
}

// New validates the configuration and builds a baseline model.
//
//lint:allow deadapi BenchmarkAblationSSetVsBaseline (bench_test.go) builds the traditional baseline to time against
func New(cfg Config) (*Model, error) {
	// Each agent is a Strategy Set of one; a baseline run neither
	// checkpoints nor resumes.
	run, err := nature.Start(nature.Run{
		Name: "baseline", NumSSets: cfg.NumAgents, AgentsPerSSet: 1, MemorySteps: cfg.MemorySteps, Rounds: cfg.Rounds,
		Seed: cfg.Seed, InitialStrategies: cfg.InitialStrategies,
		Nature: nature.Config{PCRate: cfg.PCRate, MutationRate: cfg.MutationRate, Beta: cfg.Beta},
	})
	if err != nil {
		return nil, err
	}
	engine, err := game.NewEngine(game.EngineConfig{
		Rounds:      cfg.Rounds,
		MemorySteps: cfg.MemorySteps,
		Noise:       cfg.Noise,
		// The baseline stands in for the traditional implementation the
		// paper improves on, so it must replay every round rather than
		// inherit the cycle-closing fast path.
		Kernel: game.KernelFullReplay,
	})
	if err != nil {
		return nil, err
	}
	src, _ := run.Stream(checkpoint.StreamGame) // fails only when resuming
	return &Model{cfg: cfg, engine: engine, nat: run.Agent, agents: run.Table, src: src}, nil
}

// fitness plays agent i serially against every other agent, exactly as the
// traditional algorithm prescribes — no redundancy elimination, no
// thread-level fan-out.  The agents hold pure strategies, so only a noisy
// game draws randomness.
func (m *Model) fitness(i int) (float64, error) {
	total := 0.0
	noisy := m.engine.Noise() > 0
	for j, opp := range m.agents {
		if j == i {
			continue
		}
		var src *rng.Source
		if noisy {
			src = m.src.Split()
		}
		fit, err := m.engine.PlayFitness(m.agents[i], opp, src)
		if err != nil {
			return 0, err
		}
		total += fit
		m.games++
	}
	return total, nil
}

// Step advances the simulation by one generation.
//
//lint:allow deadapi BenchmarkAblationSSetVsBaseline (bench_test.go) steps the traditional baseline it times
func (m *Model) Step() error {
	if teacher, learner, ok := m.nat.MaybeSelectPC(len(m.agents)); ok {
		fitT, err := m.fitness(teacher)
		if err != nil {
			return err
		}
		fitL, err := m.fitness(learner)
		if err != nil {
			return err
		}
		adopted, _ := m.nat.DecideAdoption(fitT, fitL)
		m.nat.RecordPC(adopted)
		if adopted {
			m.agents[learner] = m.agents[teacher].Clone()
		}
	}
	if target, newStrat, ok := m.nat.MaybeMutation(len(m.agents)); ok {
		m.agents[target] = newStrat
	}
	m.nat.EndGeneration()
	m.gen++
	return nil
}
