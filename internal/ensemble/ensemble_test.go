package ensemble

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/topology"
)

func TestReplicateSeed(t *testing.T) {
	const base = 2013
	if got := ReplicateSeed(base, 0); got != base {
		t.Fatalf("ReplicateSeed(base, 0) = %d, want the base seed %d", got, base)
	}
	seen := make(map[uint64]int)
	for k := 0; k < 64; k++ {
		s := ReplicateSeed(base, k)
		if prev, dup := seen[s]; dup {
			t.Fatalf("replicates %d and %d derived the same seed %d", prev, k, s)
		}
		seen[s] = k
	}
	// Deterministic: the same (base, k) always derives the same seed.
	if ReplicateSeed(base, 7) != ReplicateSeed(base, 7) {
		t.Fatal("ReplicateSeed is not deterministic")
	}
}

func TestResolveWorkers(t *testing.T) {
	if _, err := (Config{Replicates: 4, Workers: -1}).resolveWorkers(); err == nil {
		t.Fatal("negative Workers accepted")
	} else if !strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative-Workers error %q does not explain the rule", err)
	}
	if _, err := (Config{Replicates: 0}).resolveWorkers(); err == nil {
		t.Fatal("zero Replicates accepted")
	}
	// Zero resolves to min(Replicates, GOMAXPROCS): never above Replicates.
	w, err := (Config{Replicates: 2}).resolveWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if w < 1 || w > 2 {
		t.Fatalf("resolved workers = %d, want within [1, Replicates=2]", w)
	}
	// Explicit values win (clamped to Replicates, where extras would idle).
	w, err = (Config{Replicates: 8, Workers: 3}).resolveWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if w != 3 {
		t.Fatalf("explicit Workers=3 resolved to %d", w)
	}
}

func testTopology(t *testing.T, sel string) topology.Spec {
	t.Helper()
	spec, err := topology.Parse(sel)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSerialSharedMatchesPrivateAndSolo is the core correctness claim of
// cross-run sharing: every replicate's trajectory is bit-identical whether
// the ensemble shares one cache store, keeps private caches, or the seed is
// run entirely solo — across noiseless and noisy runs and across
// topologies.  For noiseless runs the shared ensemble must also do strictly
// less game work (fewer misses) than the private one.
func TestSerialSharedMatchesPrivateAndSolo(t *testing.T) {
	const generations = 60
	for _, noise := range []float64{0, 0.05} {
		for _, topo := range []string{"wellmixed", "ring:4"} {
			noise, topo := noise, topo
			t.Run(fmt.Sprintf("noise%v/%s", noise, topo), func(t *testing.T) {
				base := population.Config{
					NumSSets: 16, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
					PCRate: 1, MutationRate: 0.25, Beta: 1, Seed: 59, Noise: noise,
					Topology: testTopology(t, topo), EvalMode: fitness.EvalCached,
					SampleEvery: 10,
				}
				cfg := Config{Replicates: 4, Workers: 2}
				shared, err := RunSerial(context.Background(), base, generations, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.PrivateCaches = true
				private, err := RunSerial(context.Background(), base, generations, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := range shared.Runs {
					if shared.Seeds[k] != private.Seeds[k] {
						t.Fatalf("replicate %d: seed differs between shared and private ensembles", k)
					}
					solo := base
					solo.Seed = shared.Seeds[k]
					model, err := population.New(solo)
					if err != nil {
						t.Fatal(err)
					}
					want, err := model.Run(context.Background(), generations)
					if err != nil {
						t.Fatal(err)
					}
					// Ordered slice, not a map literal: comparison order (and
					// therefore which failure fires first) must be stable
					// under -shuffle=on.
					for _, c := range []struct {
						name string
						got  population.Result
					}{{"shared", shared.Runs[k]}, {"private", private.Runs[k]}} {
						name, got := c.name, c.got
						if fmt.Sprint(got.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
							t.Fatalf("replicate %d (%s cache): final strategies diverge from the solo run", k, name)
						}
						if fmt.Sprint(got.Samples) != fmt.Sprint(want.Samples) {
							t.Fatalf("replicate %d (%s cache): sampled trajectory diverges from the solo run", k, name)
						}
						if got.NatureStats != want.NatureStats {
							t.Fatalf("replicate %d (%s cache): event counts diverge from the solo run", k, name)
						}
					}
				}
				if fmt.Sprint(shared.Trajectory) != fmt.Sprint(private.Trajectory) {
					t.Fatal("aggregate trajectory depends on cache sharing")
				}
				if noise == 0 {
					if shared.Metrics.CacheMisses >= private.Metrics.CacheMisses {
						t.Fatalf("shared store saved no work: %d misses shared vs %d private",
							shared.Metrics.CacheMisses, private.Metrics.CacheMisses)
					}
					warm := int64(0)
					for _, r := range shared.Runs[1:] {
						warm += r.Metrics.CacheHits
					}
					if warm == 0 {
						t.Fatal("replicates after the first recorded zero cache hits against the warm store")
					}
				} else if shared.Metrics.CacheMisses != private.Metrics.CacheMisses {
					t.Fatal("noisy runs must bypass the shared store entirely")
				}
			})
		}
	}
}

// TestParallelSharedMatchesPrivateAndSolo mirrors the serial test for the
// distributed engine: replicate trajectories are bit-identical shared vs
// private vs solo, noiseless and noisy, well-mixed and ring.
func TestParallelSharedMatchesPrivateAndSolo(t *testing.T) {
	for _, noise := range []float64{0, 0.05} {
		for _, topo := range []string{"wellmixed", "ring:4"} {
			noise, topo := noise, topo
			t.Run(fmt.Sprintf("noise%v/%s", noise, topo), func(t *testing.T) {
				base := parallel.Config{
					Ranks: 3, NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
					PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 40, Seed: 59,
					Noise: noise, Topology: testTopology(t, topo),
					OptLevel: parallel.OptFusedFitness, EvalMode: fitness.EvalCached,
				}
				cfg := Config{Replicates: 3, Workers: 2}
				shared, err := RunParallel(base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.PrivateCaches = true
				private, err := RunParallel(base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for k := range shared.Runs {
					solo := base
					solo.Seed = shared.Seeds[k]
					want, err := parallel.Run(solo)
					if err != nil {
						t.Fatal(err)
					}
					// Ordered slice, not a map literal: comparison order (and
					// therefore which failure fires first) must be stable
					// under -shuffle=on.
					for _, c := range []struct {
						name string
						got  parallel.Result
					}{{"shared", shared.Runs[k]}, {"private", private.Runs[k]}} {
						name, got := c.name, c.got
						if fmt.Sprint(got.FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
							t.Fatalf("replicate %d (%s cache): final strategies diverge from the solo run", k, name)
						}
						if got.NatureStats != want.NatureStats {
							t.Fatalf("replicate %d (%s cache): event counts diverge from the solo run", k, name)
						}
					}
				}
				if noise == 0 && shared.Metrics.CacheMisses >= private.Metrics.CacheMisses {
					t.Fatalf("shared store saved no work: %d misses shared vs %d private",
						shared.Metrics.CacheMisses, private.Metrics.CacheMisses)
				}
			})
		}
	}
}

// TestEnsembleDeterministicAcrossWorkerCounts pins that the ensemble's
// results and aggregates do not depend on how many replicates run
// concurrently.
func TestEnsembleDeterministicAcrossWorkerCounts(t *testing.T) {
	base := population.Config{
		NumSSets: 16, AgentsPerSSet: 2, MemorySteps: 2, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Seed: 7,
		EvalMode: fitness.EvalCached, SampleEvery: 10,
	}
	var first SerialResult
	for i, workers := range []int{1, 3} {
		res, err := RunSerial(context.Background(), base, 50, Config{Replicates: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res
			continue
		}
		for k := range res.Runs {
			if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(first.Runs[k].FinalStrategies) {
				t.Fatalf("replicate %d differs between 1 and %d ensemble workers", k, workers)
			}
		}
		if fmt.Sprint(res.Trajectory) != fmt.Sprint(first.Trajectory) {
			t.Fatalf("aggregate trajectory differs between 1 and %d ensemble workers", workers)
		}
		if res.Metrics.PCEvents != first.Metrics.PCEvents || res.Metrics.Adoptions != first.Metrics.Adoptions ||
			res.Metrics.Mutations != first.Metrics.Mutations {
			t.Fatalf("merged event counts differ between 1 and %d ensemble workers", workers)
		}
	}
}

// TestSharedCacheHammer runs 8 full replicates concurrently against one
// shared PairCache store — the -race hammer of the ensemble layer — and
// checks every replicate still reproduces its solo trajectory.
func TestSharedCacheHammer(t *testing.T) {
	base := population.Config{
		NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 2, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Seed: 2013,
		EvalMode: fitness.EvalCached, SampleEvery: 0,
	}
	const generations = 30
	res, err := RunSerial(context.Background(), base, generations, Config{Replicates: 8, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnsembleWorkers != 8 || res.RunWorkers != 1 {
		t.Fatalf("resolved %d ensemble x %d run workers, want the explicit 8 x 1 (a serial replicate plays on one goroutine)",
			res.EnsembleWorkers, res.RunWorkers)
	}
	for k := range res.Runs {
		solo := base
		solo.Seed = res.Seeds[k]
		model, err := population.New(solo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Run(context.Background(), generations)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("replicate %d diverged from its solo run under the concurrent hammer", k)
		}
		if res.Runs[k].NatureStats != want.NatureStats {
			t.Fatalf("replicate %d event counts diverged under the concurrent hammer", k)
		}
	}
}

// TestEnsembleRejectsInvalidConfigs covers the error paths: negative
// workers, checkpointing inside an ensemble, and a pre-set SharedCache.
func TestEnsembleRejectsInvalidConfigs(t *testing.T) {
	base := population.Config{
		NumSSets: 8, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 10,
		PCRate: 1, Beta: 1, Seed: 1, EvalMode: fitness.EvalCached,
	}
	if _, err := RunSerial(context.Background(), base, 5, Config{Replicates: 2, Workers: -3}); err == nil {
		t.Fatal("negative ensemble Workers accepted")
	}
	ckpt := base
	ckpt.CheckpointPath = t.TempDir() + "/c.ckpt"
	if _, err := RunSerial(context.Background(), ckpt, 5, Config{Replicates: 2}); err == nil {
		t.Fatal("checkpointing inside an ensemble accepted")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("checkpoint rejection %q does not name the problem", err)
	}
	// A snapshot of replicate 0's own run: it would resume replicate 0 and
	// fail every other replicate's seed check, so it is refused up front.
	m, err := population.New(base)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	resumed := base
	resumed.Resume = &snap
	if _, err := RunSerial(context.Background(), resumed, 5, Config{Replicates: 2}); err == nil {
		t.Fatal("Resume inside an ensemble accepted")
	} else if !strings.Contains(err.Error(), "Resume is per-run") {
		t.Fatalf("Resume rejection %q does not name the problem", err)
	}
	pcfg := parallel.Config{
		Ranks: 3, NumSSets: 8, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 10,
		PCRate: 1, Beta: 1, Generations: 5, Seed: 1, OptLevel: parallel.OptFusedFitness,
	}
	if _, err := RunParallel(pcfg, Config{Replicates: 2, Workers: -1}); err == nil {
		t.Fatal("negative ensemble Workers accepted by RunParallel")
	}
	bad := pcfg
	bad.CheckpointPath = t.TempDir() + "/c.ckpt"
	if _, err := RunParallel(bad, Config{Replicates: 2}); err == nil {
		t.Fatal("checkpointing inside a parallel ensemble accepted")
	}
	bad = pcfg
	bad.Resume = &snap
	if _, err := RunParallel(bad, Config{Replicates: 2}); err == nil || !strings.Contains(err.Error(), "Resume is per-run") {
		t.Fatalf("Resume inside a parallel ensemble: err = %v, want the per-run rejection", err)
	}
}

// TestEnsembleChaosHammer is the fault-injection -race hammer: 8 serial
// replicates run concurrently against one shared pair-cache store while
// half of them take an injected mid-run crash and recover under the
// supervisor.  Every replicate — crashed or not — must still reproduce its
// solo, fault-free trajectory bit-identically.
func TestEnsembleChaosHammer(t *testing.T) {
	base := population.Config{
		NumSSets: 24, AgentsPerSSet: 2, MemorySteps: 2, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Seed: 2013,
		EvalMode: fitness.EvalCached,
	}
	const generations = 30
	cfg := Config{
		Replicates:   8,
		Workers:      8,
		MaxRestarts:  2,
		SegmentEvery: 10,
		ReplicateFaults: func(k int) *faults.Plan {
			if k%2 != 0 {
				return nil
			}
			return faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 11 + k, Rank: 0})
		},
	}
	res, err := RunSerial(context.Background(), base, generations, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, rerr := range res.Errors {
		if rerr != nil {
			t.Fatalf("replicate %d failed permanently: %v", k, rerr)
		}
	}
	if res.Metrics.Restarts < 4 {
		t.Fatalf("merged Restarts = %d, want >= 4 (one per crashed replicate)", res.Metrics.Restarts)
	}
	for k := range res.Runs {
		solo := base
		solo.Seed = res.Seeds[k]
		model, err := population.New(solo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Run(context.Background(), generations)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("replicate %d diverged from its solo run under the chaos hammer", k)
		}
		if res.Runs[k].NatureStats != want.NatureStats {
			t.Fatalf("replicate %d event counts diverged under the chaos hammer", k)
		}
	}
}

// TestEnsembleGracefulDegradationSerial pins the degradation contract: a
// permanently-failed replicate is reported at its index while the rest
// complete, aggregate, and still match their solo runs.
func TestEnsembleGracefulDegradationSerial(t *testing.T) {
	base := population.Config{
		NumSSets: 16, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Seed: 7,
		EvalMode: fitness.EvalCached, SampleEvery: 10,
	}
	const generations = 30
	const doomed = 1
	cfg := Config{
		Replicates:  4,
		MaxRestarts: 1,
		ReplicateFaults: func(k int) *faults.Plan {
			if k != doomed {
				return nil
			}
			// Count -1 = permanent: re-fires on every supervised relaunch,
			// so the replicate can never converge and must be given up on.
			return faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 5, Rank: 0, Count: -1})
		},
	}
	res, err := RunSerial(context.Background(), base, generations, cfg)
	if err == nil {
		t.Fatal("ensemble with a permanently-failed replicate returned nil error")
	}
	if !strings.Contains(err.Error(), "replicate 1") {
		t.Fatalf("error %q does not name the failed replicate", err)
	}
	if len(res.Errors) != 4 {
		t.Fatalf("Errors has %d slots, want one per replicate (4)", len(res.Errors))
	}
	for k, rerr := range res.Errors {
		if (rerr != nil) != (k == doomed) {
			t.Fatalf("Errors[%d] = %v", k, rerr)
		}
	}
	if len(res.Trajectory) == 0 {
		t.Fatal("survivors produced no aggregate trajectory")
	}
	for k := range res.Runs {
		if k == doomed {
			continue
		}
		solo := base
		solo.Seed = res.Seeds[k]
		model, err := population.New(solo)
		if err != nil {
			t.Fatal(err)
		}
		want, err := model.Run(context.Background(), generations)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("surviving replicate %d diverged from its solo run", k)
		}
	}
	// The doomed replicate must not leak into the merged counters: merged
	// PCEvents equals the sum over survivors alone.
	var wantPC int
	for k := range res.Runs {
		if k != doomed {
			wantPC += res.Runs[k].Metrics.PCEvents
		}
	}
	if res.Metrics.PCEvents != wantPC {
		t.Fatalf("merged PCEvents = %d, want survivors-only sum %d", res.Metrics.PCEvents, wantPC)
	}
}

// TestEnsembleGracefulDegradationParallel mirrors the degradation contract
// on the distributed engine, with supervision disabled (MaxRestarts 0) so
// the injected crash is immediately permanent.
func TestEnsembleGracefulDegradationParallel(t *testing.T) {
	base := parallel.Config{
		Ranks: 3, NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 30, Seed: 59,
		OptLevel: parallel.OptFusedFitness,
	}
	const doomed = 2
	cfg := Config{
		Replicates: 4,
		ReplicateFaults: func(k int) *faults.Plan {
			if k != doomed {
				return nil
			}
			return faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 9, Rank: 1})
		},
	}
	res, err := RunParallel(base, cfg)
	if err == nil {
		t.Fatal("ensemble with a crashed, unsupervised replicate returned nil error")
	}
	if !strings.Contains(err.Error(), "replicate 2") {
		t.Fatalf("error %q does not name the failed replicate", err)
	}
	for k, rerr := range res.Errors {
		if (rerr != nil) != (k == doomed) {
			t.Fatalf("Errors[%d] = %v", k, rerr)
		}
	}
	for k := range res.Runs {
		if k == doomed {
			continue
		}
		solo := base
		solo.Seed = res.Seeds[k]
		want, err := parallel.Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("surviving replicate %d diverged from its solo run", k)
		}
		if res.Runs[k].NatureStats != want.NatureStats {
			t.Fatalf("surviving replicate %d event counts diverged", k)
		}
	}
}

// TestEnsembleSupervisedParallelRecovery pins supervised recovery on the
// distributed engine inside an ensemble: the crashed replicate recovers
// and every replicate matches its solo run.
func TestEnsembleSupervisedParallelRecovery(t *testing.T) {
	base := parallel.Config{
		Ranks: 3, NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		PCRate: 1, MutationRate: 0.25, Beta: 1, Generations: 30, Seed: 59,
		OptLevel: parallel.OptFusedFitness,
	}
	cfg := Config{
		Replicates:   3,
		MaxRestarts:  2,
		SegmentEvery: 8,
		ReplicateFaults: func(k int) *faults.Plan {
			if k != 1 {
				return nil
			}
			return faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 13, Rank: 2})
		},
	}
	res, err := RunParallel(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Restarts != 1 {
		t.Fatalf("merged Restarts = %d, want 1", res.Metrics.Restarts)
	}
	for k := range res.Runs {
		solo := base
		solo.Seed = res.Seeds[k]
		want, err := parallel.Run(solo)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Runs[k].FinalStrategies) != fmt.Sprint(want.FinalStrategies) {
			t.Fatalf("replicate %d diverged from its solo run", k)
		}
		if res.Runs[k].NatureStats != want.NatureStats {
			t.Fatalf("replicate %d event counts diverged", k)
		}
	}
}
