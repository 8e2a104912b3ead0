package evogame

// The flat Metrics export (satellite of the batch-kernel PR) must be
// populated by both engines, agree with the result's own event counters,
// and attribute games to the kernel that actually ran them.

import (
	"context"
	"testing"
)

func TestSerialMetricsPopulated(t *testing.T) {
	cfg := SimulationConfig{
		NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 40,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 60, Seed: 11,
		Kernel: "batch",
	}
	res, err := Simulate(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Generations != cfg.Generations {
		t.Errorf("Metrics.Generations = %d, want %d", m.Generations, cfg.Generations)
	}
	if m.PCEvents != res.PCEvents || m.Adoptions != res.Adoptions || m.Mutations != res.Mutations {
		t.Errorf("Metrics events %d/%d/%d disagree with result %d/%d/%d",
			m.PCEvents, m.Adoptions, m.Mutations, res.PCEvents, res.Adoptions, res.Mutations)
	}
	if got := m.ScalarGames + m.CycleGames + m.BatchGames + m.VectorGames; got != res.GamesPlayed {
		t.Errorf("kernel mix sums to %d games, result played %d", got, res.GamesPlayed)
	}
	if m.BatchGames <= 0 || m.BatchCalls <= 0 {
		t.Errorf("forced batch kernel recorded no batch work: %+v", m)
	}
	if occ := m.BatchLaneOccupancy(); occ <= 0 || occ > 1 {
		t.Errorf("BatchLaneOccupancy = %v, want in (0, 1]", occ)
	}
	// The serial engine's per-event cache is its own pair rows, not the
	// persistent fitness.PairCache, so its cache counters stay zero.
	if m.CachePlays != 0 || m.CacheHits != 0 {
		t.Errorf("serial run unexpectedly recorded PairCache traffic: %+v", m)
	}
}

func TestParallelMetricsPopulated(t *testing.T) {
	cfg := ParallelConfig{
		Ranks: 4, OptimizationLevel: 3, NumSSets: 24, AgentsPerSSet: 2,
		MemorySteps: 1, Rounds: 40, PCRate: 1, MutationRate: 0.25, Beta: 1,
		Generations: 60, Seed: 777, Kernel: "batch",
	}
	res, err := SimulateParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.Generations != cfg.Generations {
		t.Errorf("Metrics.Generations = %d, want %d", m.Generations, cfg.Generations)
	}
	if m.PCEvents != res.PCEvents || m.Adoptions != res.Adoptions || m.Mutations != res.Mutations {
		t.Errorf("Metrics events %d/%d/%d disagree with result %d/%d/%d",
			m.PCEvents, m.Adoptions, m.Mutations, res.PCEvents, res.Adoptions, res.Mutations)
	}
	if m.BatchGames <= 0 || m.BatchCalls <= 0 {
		t.Errorf("forced batch kernel recorded no batch work: %+v", m)
	}
	if occ := m.BatchLaneOccupancy(); occ <= 0 || occ > 1 {
		t.Errorf("BatchLaneOccupancy = %v, want in (0, 1]", occ)
	}
}

// TestMetricsMergeEdgeCases pins Merge's semantics field family by family:
// counters sum, Generations takes the maximum (merging the ranks of one run
// keeps its generation count), and the derived batch-lane occupancy
// re-weights itself from the combined BatchGames/BatchCalls.
func TestMetricsMergeEdgeCases(t *testing.T) {
	full := Metrics{
		Generations: 10,
		CachePlays:  100, CacheHits: 60, CacheMisses: 40, CacheBypassed: 5, CacheEvicted: 2,
		ScalarGames: 7, CycleGames: 11, BatchGames: 128, BatchCalls: 2,
		PCEvents: 9, Adoptions: 4, Mutations: 3,
		Restarts: 1, RetriedSends: 5, DroppedMessages: 5, DelayedMessages: 2, RecoveryNanos: 1e6,
	}
	cases := []struct {
		name string
		into Metrics
		from Metrics
		want Metrics
	}{
		{
			name: "zero value is the identity on the right",
			into: full,
			from: Metrics{},
			want: full,
		},
		{
			name: "zero value is the identity on the left",
			into: Metrics{},
			from: full,
			want: full,
		},
		{
			name: "cache-only counters sum without touching the kernel mix",
			into: Metrics{Generations: 5, CacheHits: 10, CacheMisses: 2},
			from: Metrics{Generations: 5, CachePlays: 8, CacheHits: 1, CacheEvicted: 4},
			want: Metrics{Generations: 5, CachePlays: 8, CacheHits: 11, CacheMisses: 2, CacheEvicted: 4},
		},
		{
			name: "kernel-only counters sum without touching the cache",
			into: Metrics{ScalarGames: 3, BatchGames: 64, BatchCalls: 1},
			from: Metrics{CycleGames: 9, BatchGames: 32, BatchCalls: 1},
			want: Metrics{ScalarGames: 3, CycleGames: 9, BatchGames: 96, BatchCalls: 2},
		},
		{
			name: "generations take the maximum, not the sum",
			into: Metrics{Generations: 60, PCEvents: 1},
			from: Metrics{Generations: 60, Adoptions: 2},
			want: Metrics{Generations: 60, PCEvents: 1, Adoptions: 2},
		},
		{
			name: "shorter run folded into longer keeps the longer horizon",
			into: Metrics{Generations: 100},
			from: Metrics{Generations: 40, Mutations: 7},
			want: Metrics{Generations: 100, Mutations: 7},
		},
		{
			name: "fault counters sum without touching the rest",
			into: Metrics{Restarts: 1, RetriedSends: 3, RecoveryNanos: 2e6},
			from: Metrics{Restarts: 2, DroppedMessages: 4, DelayedMessages: 1, RecoveryNanos: 1e6},
			want: Metrics{Restarts: 3, RetriedSends: 3, DroppedMessages: 4, DelayedMessages: 1, RecoveryNanos: 3e6},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.into
			got.Merge(tc.from)
			if got != tc.want {
				t.Errorf("Merge result:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

// TestMetricsMergeOccupancyReweighting covers the derived-quantity edge
// cases: merging metrics with zero batch calls must neither panic nor
// disturb the other side's occupancy, and merging two batch runs yields the
// occupancy of the combined counters rather than any average of the two.
func TestMetricsMergeOccupancyReweighting(t *testing.T) {
	if occ := (Metrics{}).BatchLaneOccupancy(); occ != 0 {
		t.Fatalf("zero-value occupancy = %v, want 0 (batch kernel never ran)", occ)
	}

	batch := Metrics{BatchGames: 64, BatchCalls: 1} // one full SWAR call
	noBatch := Metrics{ScalarGames: 500}            // zero calls: occupancy undefined
	merged := batch
	merged.Merge(noBatch)
	if occ := merged.BatchLaneOccupancy(); occ != 1 {
		t.Errorf("occupancy after folding a zero-call run = %v, want 1 (unchanged)", occ)
	}

	half := Metrics{BatchGames: 32, BatchCalls: 1} // one half-full call
	combined := batch
	combined.Merge(half)
	// (64+32)/(2*64) = 0.75: the occupancy of the pooled counters, not the
	// mean of the per-run occupancies weighted equally.
	if occ := combined.BatchLaneOccupancy(); occ != 0.75 {
		t.Errorf("pooled occupancy = %v, want 0.75", occ)
	}
}

// TestMetricsMergeCommutativeAssociative checks the algebraic property the
// ensemble tier relies on: folding per-replicate metrics must not depend on
// replicate completion order.
func TestMetricsMergeCommutativeAssociative(t *testing.T) {
	samples := []Metrics{
		{},
		{Generations: 10, CacheHits: 3, ScalarGames: 5, PCEvents: 1},
		{Generations: 60, CacheMisses: 8, BatchGames: 96, BatchCalls: 2, Adoptions: 4},
		{Generations: 25, CachePlays: 40, CycleGames: 13, BatchGames: 64, BatchCalls: 1, Mutations: 6},
	}
	merge := func(a, b Metrics) Metrics {
		a.Merge(b)
		return a
	}
	for i, a := range samples {
		for j, b := range samples {
			if merge(a, b) != merge(b, a) {
				t.Errorf("Merge is not commutative for samples %d and %d", i, j)
			}
			for k, c := range samples {
				left := merge(merge(a, b), c)
				right := merge(a, merge(b, c))
				if left != right {
					t.Errorf("Merge is not associative for samples %d, %d, %d:\n (a+b)+c = %+v\n a+(b+c) = %+v",
						i, j, k, left, right)
				}
			}
		}
	}
}
