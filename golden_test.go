package evogame

// Golden-trajectory regression tests pinning the engines to the exact
// output of the pre-topology implementation (commit "PR 2", captured by
// running these configurations before the topology layer existed).  The
// structured-population work promises that the default well-mixed topology
// is bit-identical per seed to the engines it replaced; these literals
// make that promise falsifiable instead of merely asserted — any change to
// the random-stream layout, the opponent iteration order or the Nature
// Agent's pair selection shows up here as a diff against history, not just
// as self-consistency.

import (
	"context"
	"strings"
	"testing"
)

const (
	goldenSerialFinal = "1111,1111,0111,1111,0010,0001,1110,1111,0111,0101," +
		"1111,1111,0111,1110,1111,0011,0111,1111,0001,0101,0111,1111,0111,1111"
	goldenSerialNoisyFinal = "0100,0111,0101,0110,0100,0111,1111,0111,0100," +
		"0111,0101,0111,1011,0111,0001,0110"
)

// TestWellMixedBitIdenticalToPreTopologyEngines replays the captured
// configurations through both engines — with the topology knob left at its
// zero value and set to "wellmixed" explicitly — and compares against the
// recorded pre-topology trajectories.
func TestWellMixedBitIdenticalToPreTopologyEngines(t *testing.T) {
	for _, topo := range []string{"", "wellmixed"} {
		res, err := Simulate(context.Background(), SimulationConfig{
			NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 40,
			PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 120, Seed: 777,
			Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(res.FinalStrategies, ","); got != goldenSerialFinal {
			t.Errorf("serial topology=%q diverged from the pre-topology engine:\ngot  %s\nwant %s", topo, got, goldenSerialFinal)
		}
		if res.PCEvents != 120 || res.Adoptions != 57 || res.Mutations != 34 || res.GamesPlayed != 1722 {
			t.Errorf("serial topology=%q events = %d/%d/%d games %d, want 120/57/34 games 1722",
				topo, res.PCEvents, res.Adoptions, res.Mutations, res.GamesPlayed)
		}

		pres, err := SimulateParallel(ParallelConfig{
			Ranks: 4, OptimizationLevel: 3, NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 1,
			Rounds: 40, PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 120, Seed: 777,
			Topology: topo,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(pres.FinalStrategies, ","); got != goldenSerialFinal {
			t.Errorf("parallel topology=%q diverged from the pre-topology engine:\ngot  %s\nwant %s", topo, got, goldenSerialFinal)
		}
		if pres.PCEvents != 120 || pres.Adoptions != 57 || pres.Mutations != 34 {
			t.Errorf("parallel topology=%q events = %d/%d/%d, want 120/57/34",
				topo, pres.PCEvents, pres.Adoptions, pres.Mutations)
		}
	}
}

// TestWellMixedNoisyBitIdentical covers the noise > 0 path, which bypasses
// the fitness cache and exercises the per-game randomness plumbing.
func TestWellMixedNoisyBitIdentical(t *testing.T) {
	res, err := Simulate(context.Background(), SimulationConfig{
		NumSSets: 16, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 30, Noise: 0.05,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 80, Seed: 99,
		Topology: "wellmixed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.FinalStrategies, ","); got != goldenSerialNoisyFinal {
		t.Errorf("noisy serial run diverged from the pre-topology engine:\ngot  %s\nwant %s", got, goldenSerialNoisyFinal)
	}
	if res.PCEvents != 80 || res.Adoptions != 45 || res.Mutations != 22 {
		t.Errorf("noisy serial events = %d/%d/%d, want 80/45/22", res.PCEvents, res.Adoptions, res.Mutations)
	}
}

// goldenNoisyParallel pins the distributed engine's noisy EvalFull path per
// topology: the per-(generation, SSet) noise streams, their per-opponent
// splits and the worker fan-out.  The runs were captured before the SSet
// ranks' thread tier moved into internal/fitness.
var goldenNoisyParallel = map[string]goldenRun{
	"wellmixed": {digest: "7a63ce05b9494c5e", pcEvents: 120, adoptions: 51, mutations: 34, games: 66240},
	"ring:4":    {digest: "67bfbc76a86d7ac7", pcEvents: 120, adoptions: 67, mutations: 25, games: 11520},
}

// TestNoisyParallelFullGolden replays a noisy memory-one distributed run at
// one and three workers per rank; the worker count must not move a bit.
func TestNoisyParallelFullGolden(t *testing.T) {
	for _, topo := range []string{"wellmixed", "ring:4"} {
		for _, workers := range []int{1, 3} {
			res, err := SimulateParallel(ParallelConfig{
				Ranks: 4, WorkersPerRank: workers, OptimizationLevel: 3, NumSSets: 24, AgentsPerSSet: 2,
				MemorySteps: 1, Rounds: 40, Noise: 0.05, PCRate: 1, MutationRate: 0.25, Beta: 1,
				Generations: 120, Seed: 777, EvalMode: EvalFull, Topology: topo,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRun{strategiesDigest(res.FinalStrategies), res.PCEvents, res.Adoptions, res.Mutations, res.TotalGames, 0, 0, [3]int64{}}
			if want := goldenNoisyParallel[topo]; got != want {
				t.Errorf("noisy distributed %s workers=%d diverged from the recorded trajectory:\ngot  %+v\nwant %+v", topo, workers, got, want)
			}
		}
	}
}
