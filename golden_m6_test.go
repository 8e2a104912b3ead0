package evogame

// Memory-six golden trajectories.  golden_test.go pins memory-one only; at
// memory six the strategy tables have 4,096 states, games revisit a state
// only after tens to hundreds of rounds (or not at all within a game), and
// the serial engine's cache misses and the distributed engine's full replay
// run through different kernel paths than at memory one.  The trajectories
// (final strategies, event counts, games played) were captured from the
// engines before the single-pass cycle-closing kernel replaced Brent's cycle
// detection and before the serial engine left the linear state search, so
// any drift in either path is a diff against history.  A memory-six
// strategy renders as 4,096 characters, so the final strategy tables are
// pinned by an FNV-64a digest.

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// strategiesDigest is FNV-64a over the comma-joined final strategies.
func strategiesDigest(final []string) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(final, ",")))
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenRun is the pinned outcome of one memory-six run.  The kernel split
// is pinned too: a game counts as a cycle game when its walk revisits a
// state before the last round, and as a scalar game otherwise.  (Brent's
// search, which the captured engines ran, gave up after 2*rounds steps, so
// it also replayed some games whose long cycle closes behind a short
// prefix; the recorded splits were 660/19, 696/9 and 7780/156.)  Where the
// AVX-512 gather lanes run, batches split their games differently — cycle
// games closed by the lanes' gate or by Play, scalar games, and vector
// games the lanes replayed to the end — so lanes pins that split.
type goldenRun struct {
	digest                         string
	pcEvents, adoptions, mutations int
	games, cycleGames, scalarGames int64
	lanes                          [3]int64 // cycle, scalar and vector games where the lanes ran
}

func (g goldenRun) check(t *testing.T, name string, final []string, pc, adopt, mut int, games int64, m Metrics) {
	t.Helper()
	got := goldenRun{strategiesDigest(final), pc, adopt, mut, games, m.CycleGames, m.ScalarGames, g.lanes}
	if m.VectorGames != 0 {
		got.cycleGames, got.scalarGames = g.cycleGames, g.scalarGames
		got.lanes = [3]int64{m.CycleGames, m.ScalarGames, m.VectorGames}
	}
	if got != g {
		t.Errorf("%s diverged from the recorded memory-six trajectory:\ngot  %+v\nwant %+v", name, got, g)
	}
}

var (
	// goldenM6Ensemble is replicate k of a two-replicate serial EvalCached
	// ensemble shaped like the averaged-figure workload.
	goldenM6Ensemble = []goldenRun{
		{"f6d3c26940629662", 600, 302, 24, 679, 670, 9, [3]int64{510, 6, 163}},
		{"941654ae6d666969", 600, 265, 26, 705, 697, 8, [3]int64{531, 4, 170}},
	}
	// goldenM6Parallel is a distributed opt-level-3 EvalFull run.
	goldenM6Parallel = goldenRun{"4543ba150f34e498", 8, 4, 1, 7936, 7888, 48, [3]int64{4636, 24, 3276}}
)

// TestMemorySixSerialCachedGolden pins a serial EvalCached ensemble at
// memory six: every replicate shares one pair-cache store and each miss is
// played by the replicate's own engine.
func TestMemorySixSerialCachedGolden(t *testing.T) {
	sim := SimulationConfig{
		NumSSets: 32, AgentsPerSSet: 4, MemorySteps: 6, PCRate: 1, MutationRate: 0.05,
		Generations: 600, Seed: 2013, EvalMode: EvalCached, Workers: 1,
	}
	res, err := RunEnsemble(context.Background(), EnsembleConfig{Replicates: len(goldenM6Ensemble), EnsembleWorkers: 1, Simulation: &sim})
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range res.Serial {
		goldenM6Ensemble[k].check(t, fmt.Sprintf("replicate %d", k), r.FinalStrategies, r.PCEvents, r.Adoptions, r.Mutations, r.GamesPlayed, r.Metrics)
	}
}

// TestMemorySixParallelFullGolden pins the distributed engine's memory-six
// full replay at optimization level 3.
func TestMemorySixParallelFullGolden(t *testing.T) {
	res, err := SimulateParallel(ParallelConfig{
		Ranks: 3, WorkersPerRank: 1, OptimizationLevel: 3, NumSSets: 32, AgentsPerSSet: 4,
		MemorySteps: 6, PCRate: 1, MutationRate: 0.05, Generations: 8, Seed: 2013, EvalMode: EvalFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	goldenM6Parallel.check(t, "distributed opt-3 EvalFull", res.FinalStrategies, res.PCEvents, res.Adoptions, res.Mutations, res.TotalGames, res.Metrics)
}
