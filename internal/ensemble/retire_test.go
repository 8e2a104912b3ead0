package ensemble

import (
	"context"
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/population"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestSharedInitialTableAtMemoryThree runs four memory-three replicates
// one at a time from one shared initial table, with the shared store and
// with private stores.  Extinct mutants' IDs are retired after each
// replicate, but the initial table's are kept, so every replicate hits
// and misses exactly as it did when the store kept every strategy (the
// recorded counts), and the shared store plays fewer games than private
// ones.
func TestSharedInitialTableAtMemoryThree(t *testing.T) {
	src := rng.New(7)
	initial := make([]strategy.Strategy, 24)
	for i := range initial {
		initial[i] = strategy.RandomPure(3, src)
	}
	// Per-replicate {hits, misses}, recorded on the store that kept every
	// strategy it had seen.
	want := map[string][4][2]int64{
		"cached/shared":       {{7923, 1473}, {8598, 1437}, {8807, 1233}, {8498, 1234}},
		"cached/private":      {{7923, 1473}, {8380, 1655}, {8552, 1488}, {8266, 1466}},
		"incremental/shared":  {{1122, 1534}, {1463, 1514}, {1406, 1316}, {1297, 1329}},
		"incremental/private": {{1122, 1534}, {1244, 1733}, {1149, 1573}, {1062, 1564}},
	}
	for _, mode := range []fitness.EvalMode{fitness.EvalCached, fitness.EvalIncremental} {
		base := population.Config{
			NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 3, Rounds: 64,
			PCRate: 1, MutationRate: 0.3, Beta: 1, Seed: 31, EvalMode: mode,
			InitialStrategies: initial,
		}
		var misses [2]int64
		var runs [2][]population.Result
		for k, private := range []bool{false, true} {
			name := fmt.Sprintf("%v/shared", mode)
			if private {
				name = fmt.Sprintf("%v/private", mode)
			}
			res, err := RunSerial(context.Background(), base, 400, Config{Replicates: 4, Workers: 1, PrivateCaches: private})
			if err != nil {
				t.Fatal(err)
			}
			for r, run := range res.Runs {
				got := [2]int64{run.Metrics.CacheHits, run.Metrics.CacheMisses}
				if got != want[name][r] {
					t.Fatalf("%s replicate %d: hits/misses %v, want %v", name, r, got, want[name][r])
				}
			}
			misses[k], runs[k] = res.Metrics.CacheMisses, res.Runs
		}
		if misses[0] >= misses[1] {
			t.Fatalf("%v: %d misses shared, %d private", mode, misses[0], misses[1])
		}
		for r := range runs[0] {
			if fmt.Sprint(runs[0][r].FinalStrategies) != fmt.Sprint(runs[1][r].FinalStrategies) || runs[0][r].NatureStats != runs[1][r].NatureStats {
				t.Fatalf("%v replicate %d: the shared store changed the trajectory", mode, r)
			}
		}
	}
}
