package baseline

import (
	"testing"

	"evogame/internal/strategy"
)

func baseConfig() Config {
	return Config{
		NumAgents:    10,
		MemorySteps:  1,
		Rounds:       50,
		PCRate:       1,
		MutationRate: -1,
		Beta:         1,
		Seed:         42,
	}
}

// run advances m by the given number of generations.
func run(t *testing.T, m *Model, generations int) {
	t.Helper()
	for g := 0; g < generations; g++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.NumAgents = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted a single agent")
	}
	cfg = baseConfig()
	cfg.InitialStrategies = []strategy.Strategy{strategy.AllC(1)}
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted a mismatched initial strategy table")
	}
	cfg = baseConfig()
	cfg.Rounds = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero rounds")
	}
	cfg = baseConfig()
	cfg.MemorySteps = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("accepted zero memory steps")
	}
}

func TestPopulationSizeConserved(t *testing.T) {
	cfg := baseConfig()
	cfg.MutationRate = 0.5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, 100)
	if len(m.agents) != cfg.NumAgents {
		t.Fatal("agent count changed")
	}
	if m.gen != 100 {
		t.Fatalf("generation = %d", m.gen)
	}
}

func TestSelectionFavoursDefectorsWithoutReciprocity(t *testing.T) {
	cfg := baseConfig()
	cfg.NumAgents = 10
	initial := make([]strategy.Strategy, cfg.NumAgents)
	for i := range initial {
		if i < 5 {
			initial[i] = strategy.AllC(1)
		} else {
			initial[i] = strategy.AllD(1)
		}
	}
	cfg.InitialStrategies = initial
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, 300)
	for i, a := range m.agents {
		if !a.Equal(strategy.AllD(1)) {
			t.Fatalf("agent %d holds %v, want ALLD fixation", i, a)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	final := func() []strategy.Strategy {
		cfg := baseConfig()
		cfg.MutationRate = 0.3
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		run(t, m, 120)
		return m.agents
	}
	a, b := final(), final()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("baseline runs diverge at agent %d", i)
		}
	}
}

func TestGamesPlayedGrowsQuadratically(t *testing.T) {
	// One PC event evaluates two agents against all others: 2*(N-1) games.
	cfg := baseConfig()
	cfg.NumAgents = 8
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run(t, m, 10)
	want := int64(10 * 2 * 7)
	if m.games != want {
		t.Fatalf("games played = %d, want %d (PC rate 1, 8 agents)", m.games, want)
	}
	if m.nat.Stats().PCEvents != 10 {
		t.Fatalf("PC events = %d", m.nat.Stats().PCEvents)
	}
}

func TestInitialStrategiesCopied(t *testing.T) {
	cfg := baseConfig()
	cfg.NumAgents = 2
	cfg.PCRate = -1
	initial := []strategy.Strategy{strategy.AllC(1), strategy.AllD(1)}
	cfg.InitialStrategies = initial
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial[0] = strategy.WSLS(1) // mutating the caller's slice must not matter
	if !m.agents[0].Equal(strategy.AllC(1)) {
		t.Fatal("model aliases the caller's initial strategy slice")
	}
}
