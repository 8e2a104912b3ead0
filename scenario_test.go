package evogame

// Equivalence tests for the pluggable game, update-rule and topology
// layers: every registered (game, update rule) combination and every
// built-in topology must produce identical trajectories across both
// engines and all fitness evaluation modes, the default scenario must
// remain bit-identical to a zero-value configuration, and non-integer
// payoff matrices must transparently fall back from the incremental mode
// without changing the dynamics.

import (
	"context"
	"fmt"
	"testing"
)

func TestScenarioRegistries(t *testing.T) {
	games := Games()
	for _, want := range []string{"ipd", "snowdrift", "staghunt", "generic"} {
		found := false
		for _, g := range games {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Games() = %v, missing %q", games, want)
		}
	}
	rules := UpdateRules()
	for _, want := range []string{"fermi", "imitation", "moran"} {
		found := false
		for _, r := range rules {
			if r == want {
				found = true
			}
		}
		if !found {
			t.Errorf("UpdateRules() = %v, missing %q", rules, want)
		}
	}
	info, err := DescribeGame("ipd")
	if err != nil || info.Payoff != [4]float64{3, 0, 4, 1} {
		t.Errorf("DescribeGame(ipd) = %+v, %v; want the paper's [3 0 4 1]", info, err)
	}
	if _, err := DescribeGame("calvinball"); err == nil {
		t.Error("DescribeGame accepted an unknown game")
	}
}

func TestScenarioRejectsBadConfig(t *testing.T) {
	base := SimulationConfig{NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1}
	for name, mutate := range map[string]func(*SimulationConfig){
		"unknown game":      func(c *SimulationConfig) { c.Game = "calvinball" },
		"unknown rule":      func(c *SimulationConfig) { c.UpdateRule = "replicator" },
		"short payoff":      func(c *SimulationConfig) { c.Payoff = []float64{1, 2} },
		"constraint broken": func(c *SimulationConfig) { c.Game = "staghunt"; c.Payoff = []float64{3, 0, 4, 1} },
	} {
		cfg := base
		mutate(&cfg)
		if _, err := Simulate(context.Background(), cfg); err == nil {
			t.Errorf("Simulate accepted %s", name)
		}
	}
	if _, err := SimulateParallel(ParallelConfig{
		Ranks: 3, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1, Game: "calvinball",
	}); err == nil {
		t.Error("SimulateParallel accepted an unknown game")
	}
}

// TestDefaultScenarioBitIdentical is the zero-regression check of the
// refactor: leaving Game/UpdateRule unset must reproduce exactly what an
// explicit IPD + Fermi configuration produces, in both engines and under
// every eval mode, because the zero values resolve to the same spec and
// rule the pre-registry engines hardwired.
func TestDefaultScenarioBitIdentical(t *testing.T) {
	base := SimulationConfig{
		NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 30,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 60, Seed: 42,
		SampleEvery: 20,
	}
	for _, mode := range allEvalModes {
		implicit := base
		implicit.EvalMode = mode
		explicit := implicit
		explicit.Game = "ipd"
		explicit.UpdateRule = "fermi"
		ri, err := Simulate(context.Background(), implicit)
		if err != nil {
			t.Fatalf("implicit %v: %v", mode, err)
		}
		re, err := Simulate(context.Background(), explicit)
		if err != nil {
			t.Fatalf("explicit %v: %v", mode, err)
		}
		if fmt.Sprint(ri) != fmt.Sprint(re) {
			t.Fatalf("%v: explicit ipd+fermi differs from the zero-value scenario", mode)
		}
	}
	pbase := ParallelConfig{
		Ranks: 3, OptimizationLevel: 3, NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1,
		Rounds: 30, PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 40, Seed: 42,
	}
	explicit := pbase
	explicit.Game = "ipd"
	explicit.UpdateRule = "fermi"
	ri, err := SimulateParallel(pbase)
	if err != nil {
		t.Fatal(err)
	}
	re, err := SimulateParallel(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ri.FinalStrategies) != fmt.Sprint(re.FinalStrategies) {
		t.Fatal("parallel: explicit ipd+fermi differs from the zero-value scenario")
	}
}

// TestScenarioMatrixEquivalence is the cross-engine acceptance check for
// the scenario layer: for every registered (game, update rule) pair, all
// three eval modes must reproduce the serial EvalFull trajectory bit for
// bit, and the distributed engine must agree with the serial one.
func TestScenarioMatrixEquivalence(t *testing.T) {
	for _, gameName := range Games() {
		for _, ruleName := range UpdateRules() {
			gameName, ruleName := gameName, ruleName
			t.Run(gameName+"/"+ruleName, func(t *testing.T) {
				base := SimulationConfig{
					NumSSets: 10, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
					PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 50, Seed: 31,
					Game: gameName, UpdateRule: ruleName,
				}
				serial := make(map[EvalMode]SimulationResult)
				for _, mode := range allEvalModes {
					cfg := base
					cfg.EvalMode = mode
					res, err := Simulate(context.Background(), cfg)
					if err != nil {
						t.Fatalf("serial %v: %v", mode, err)
					}
					serial[mode] = res
				}
				want := serial[EvalFull]
				for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
					got := serial[mode]
					if fmt.Sprint(got.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
						t.Fatalf("serial %v: final strategies differ from EvalFull", mode)
					}
					if got.PCEvents != want.PCEvents || got.Adoptions != want.Adoptions || got.Mutations != want.Mutations {
						t.Fatalf("serial %v: event counts differ from EvalFull", mode)
					}
				}

				for _, mode := range allEvalModes {
					res, err := SimulateParallel(ParallelConfig{
						Ranks: 4, OptimizationLevel: 3,
						NumSSets: base.NumSSets, AgentsPerSSet: base.AgentsPerSSet,
						MemorySteps: base.MemorySteps, Rounds: base.Rounds,
						PCRate: base.PCRate, MutationRate: base.MutationRate, Beta: base.Beta,
						Generations: base.Generations, Seed: base.Seed,
						Game: gameName, UpdateRule: ruleName, EvalMode: mode,
					})
					if err != nil {
						t.Fatalf("parallel %v: %v", mode, err)
					}
					if fmt.Sprint(res.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
						t.Fatalf("parallel %v: serial and distributed engines diverge", mode)
					}
					if res.PCEvents != want.PCEvents || res.Adoptions != want.Adoptions || res.Mutations != want.Mutations {
						t.Fatalf("parallel %v: event counts diverge from serial", mode)
					}
				}
			})
		}
	}
}

// TestTopologyMatrixEquivalence is the cross-engine acceptance check for
// the structured-population layer: for every built-in topology at
// S ∈ {32, 128}, all three eval modes must reproduce the serial EvalFull
// trajectory bit for bit, and the distributed engine must agree with the
// serial one.  (Both engines rebuild the graph deterministically from the
// seed, so any divergence in construction or neighbor iteration order
// would surface here.)
func TestTopologyMatrixEquivalence(t *testing.T) {
	topologies := []string{"wellmixed", "ring:4", "torus:vonneumann", "torus:moore", "smallworld:4:0.2"}
	for _, ssets := range []int{32, 128} {
		gens := 50
		if ssets == 128 {
			if testing.Short() {
				continue
			}
			gens = 30
		}
		for _, topo := range topologies {
			ssets, gens, topo := ssets, gens, topo
			t.Run(fmt.Sprintf("S%d/%s", ssets, topo), func(t *testing.T) {
				base := SimulationConfig{
					NumSSets: ssets, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
					PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: gens, Seed: 59,
					Topology: topo,
				}
				serial := make(map[EvalMode]SimulationResult)
				for _, mode := range allEvalModes {
					cfg := base
					cfg.EvalMode = mode
					res, err := Simulate(context.Background(), cfg)
					if err != nil {
						t.Fatalf("serial %v: %v", mode, err)
					}
					serial[mode] = res
				}
				want := serial[EvalFull]
				for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
					got := serial[mode]
					if fmt.Sprint(got.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
						t.Fatalf("serial %v: final strategies differ from EvalFull", mode)
					}
					if got.PCEvents != want.PCEvents || got.Adoptions != want.Adoptions || got.Mutations != want.Mutations {
						t.Fatalf("serial %v: event counts differ from EvalFull", mode)
					}
				}

				for _, mode := range allEvalModes {
					res, err := SimulateParallel(ParallelConfig{
						Ranks: 5, OptimizationLevel: 3,
						NumSSets: base.NumSSets, AgentsPerSSet: base.AgentsPerSSet,
						MemorySteps: base.MemorySteps, Rounds: base.Rounds,
						PCRate: base.PCRate, MutationRate: base.MutationRate, Beta: base.Beta,
						Generations: base.Generations, Seed: base.Seed,
						Topology: topo, EvalMode: mode,
					})
					if err != nil {
						t.Fatalf("parallel %v: %v", mode, err)
					}
					if fmt.Sprint(res.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
						t.Fatalf("parallel %v: serial and distributed engines diverge", mode)
					}
					if res.PCEvents != want.PCEvents || res.Adoptions != want.Adoptions || res.Mutations != want.Mutations {
						t.Fatalf("parallel %v: event counts diverge from serial", mode)
					}
				}
			})
		}
	}
}

// TestTopologyRegistryFacade covers the topology registry surface of the
// facade: the registry lists the built-ins, DescribeTopology resolves
// parameterized selections, TopologyNeighbors matches the graph a
// simulation runs on, and invalid selections are rejected by both engines.
func TestTopologyRegistryFacade(t *testing.T) {
	topos := Topologies()
	for _, want := range []string{"wellmixed", "ring", "torus", "smallworld"} {
		found := false
		for _, name := range topos {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Topologies() = %v, missing %q", topos, want)
		}
	}
	info, err := DescribeTopology("ring:8")
	if err != nil || info.Name != "ring" || info.Canonical != "ring:8" {
		t.Errorf("DescribeTopology(ring:8) = %+v, %v", info, err)
	}
	neigh, err := TopologyNeighbors("ring:4", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(neigh[0]) != "[1 2 8 9]" {
		t.Errorf("TopologyNeighbors(ring:4)[0] = %v, want [1 2 8 9]", neigh[0])
	}
	// The describer must not hand out a canonical identity for a selection
	// no engine runs (a NaN rewire probability once built a plain ring).
	for name, cfgTopo := range map[string]string{
		"unknown":         "hypercube",
		"bad degree":      "ring:5",
		"negative degree": "ring:-3",
		"odd smallworld":  "smallworld:5",
		"negative rewire": "smallworld:4:-0.1",
		"NaN rewire":      "smallworld:4:NaN",
		"bad params":      "wellmixed:3",
	} {
		if info, err := DescribeTopology(cfgTopo); err == nil {
			t.Errorf("DescribeTopology accepted %s topology %q as %+v", name, cfgTopo, info)
		}
		if _, err := Simulate(context.Background(), SimulationConfig{
			NumSSets: 8, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1, Topology: cfgTopo,
		}); err == nil {
			t.Errorf("Simulate accepted %s topology %q", name, cfgTopo)
		}
	}
	if _, err := SimulateParallel(ParallelConfig{
		Ranks: 3, NumSSets: 8, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1, Topology: "hypercube",
	}); err == nil {
		t.Error("SimulateParallel accepted an unknown topology")
	}
}

// TestTopologyChangesDynamics is the sanity counterpart: a structured
// topology must actually change the trajectory relative to well-mixed
// (same seed, same everything else), and explicit "wellmixed" must match
// the zero-value default bit for bit.
func TestTopologyChangesDynamics(t *testing.T) {
	base := SimulationConfig{
		NumSSets: 16, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 30,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 80, Seed: 5,
	}
	def, err := Simulate(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := base
	explicit.Topology = "wellmixed"
	wm, err := Simulate(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(def) != fmt.Sprint(wm) {
		t.Error("explicit wellmixed differs from the zero-value topology")
	}
	ring := base
	ring.Topology = "ring:4"
	rr, err := Simulate(context.Background(), ring)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rr.FinalStrategies) == fmt.Sprint(def.FinalStrategies) {
		t.Error("ring:4 produced the same trajectory as well-mixed")
	}
}

// TestScenariosChangeDynamics is the sanity counterpart of the equivalence
// matrix: switching the game or the update rule must actually change the
// trajectory (same seed, same everything else).
func TestScenariosChangeDynamics(t *testing.T) {
	run := func(gameName, ruleName string) SimulationResult {
		t.Helper()
		res, err := Simulate(context.Background(), SimulationConfig{
			NumSSets: 14, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 30,
			PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 80, Seed: 5,
			Game: gameName, UpdateRule: ruleName,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", gameName, ruleName, err)
		}
		return res
	}
	ipdFermi := run("ipd", "fermi")
	if fmt.Sprint(run("snowdrift", "fermi").FinalStrategies) == fmt.Sprint(ipdFermi.FinalStrategies) {
		t.Error("snowdrift produced the same trajectory as ipd")
	}
	if fmt.Sprint(run("ipd", "imitation").FinalStrategies) == fmt.Sprint(ipdFermi.FinalStrategies) {
		t.Error("imitation produced the same trajectory as fermi")
	}
	if fmt.Sprint(run("ipd", "moran").FinalStrategies) == fmt.Sprint(ipdFermi.FinalStrategies) {
		t.Error("moran produced the same trajectory as fermi")
	}
}

// TestNonIntegerPayoffFallsBackFromIncremental exercises the DeltaExact
// gate: a generic game with fractional payoffs cannot guarantee bit-exact
// incremental delta updates, so EvalIncremental must transparently behave
// like EvalCached and still reproduce the EvalFull trajectory exactly.
func TestNonIntegerPayoffFallsBackFromIncremental(t *testing.T) {
	base := SimulationConfig{
		NumSSets: 10, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 60, Seed: 13,
		Game: "generic", Payoff: []float64{2.25, 0.5, 3.75, 1.125},
	}
	results := make(map[EvalMode]SimulationResult)
	for _, mode := range allEvalModes {
		cfg := base
		cfg.EvalMode = mode
		res, err := Simulate(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		results[mode] = res
	}
	want := results[EvalFull]
	for _, mode := range []EvalMode{EvalCached, EvalIncremental} {
		got := results[mode]
		if fmt.Sprint(got.FinalStrategies) != fmt.Sprint(want.FinalStrategies) ||
			fmt.Sprint(got.Samples) != fmt.Sprint(want.Samples) ||
			got.Adoptions != want.Adoptions || got.Mutations != want.Mutations {
			t.Fatalf("%v: non-integer payoff trajectory differs from EvalFull", mode)
		}
	}
	for _, mode := range allEvalModes {
		res, err := SimulateParallel(ParallelConfig{
			Ranks: 3, OptimizationLevel: 3,
			NumSSets: base.NumSSets, AgentsPerSSet: base.AgentsPerSSet,
			MemorySteps: base.MemorySteps, Rounds: base.Rounds,
			PCRate: base.PCRate, MutationRate: base.MutationRate, Beta: base.Beta,
			Generations: base.Generations, Seed: base.Seed,
			Game: base.Game, Payoff: base.Payoff, EvalMode: mode,
		})
		if err != nil {
			t.Fatalf("parallel %v: %v", mode, err)
		}
		if fmt.Sprint(res.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("parallel %v: non-integer payoff diverges from the serial trajectory", mode)
		}
	}
}
