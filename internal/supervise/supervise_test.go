package supervise

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"evogame/internal/faults"
	"evogame/internal/game"
	"evogame/internal/mpi"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/topology"
)

func mustKernel(t *testing.T, name string) game.KernelMode {
	t.Helper()
	k, err := game.ParseKernelMode(name)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mustTopology(t *testing.T, spec string) topology.Spec {
	t.Helper()
	s, err := topology.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parallelCfg(t *testing.T, gens int, noise float64, topoSpec, kernel string) parallel.Config {
	t.Helper()
	return parallel.Config{
		Ranks:         4,
		NumSSets:      12,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		Noise:         noise,
		PCRate:        1,
		MutationRate:  0.2,
		Beta:          1,
		Generations:   gens,
		Seed:          42,
		OptLevel:      parallel.OptFusedFitness,
		Topology:      mustTopology(t, topoSpec),
		Kernel:        mustKernel(t, kernel),
	}
}

func serialCfg(noise float64) population.Config {
	return population.Config{
		NumSSets:      16,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		Noise:         noise,
		PCRate:        1,
		MutationRate:  0.2,
		Beta:          1,
		Seed:          42,
		SampleEvery:   5,
		Workers:       2,
	}
}

// compareParallel asserts the recovered run is bit-identical to the
// fault-free golden: same final strategy table, same cumulative event
// counts.
func compareParallel(t *testing.T, golden, recovered parallel.Result) {
	t.Helper()
	if len(golden.FinalStrategies) != len(recovered.FinalStrategies) {
		t.Fatalf("strategy table sizes differ: %d vs %d", len(golden.FinalStrategies), len(recovered.FinalStrategies))
	}
	for i := range golden.FinalStrategies {
		if golden.FinalStrategies[i].String() != recovered.FinalStrategies[i].String() {
			t.Fatalf("strategy %d diverged: %s vs %s", i, golden.FinalStrategies[i], recovered.FinalStrategies[i])
		}
	}
	if golden.NatureStats != recovered.NatureStats {
		t.Fatalf("event counts diverged: %+v vs %+v", golden.NatureStats, recovered.NatureStats)
	}
	if golden.Generations != recovered.Generations {
		t.Fatalf("generations diverged: %d vs %d", golden.Generations, recovered.Generations)
	}
}

// TestChaosMatrixParallelRecoveryBitIdentical is the chaos matrix of the
// fault-tolerant tier: every fault kind, against both the Nature Agent
// (rank 0) and an SSet rank, on both a well-mixed and a ring topology,
// under both deterministic-game kernels.  Each supervised run must finish
// bit-identically to the fault-free golden of the same configuration.
func TestChaosMatrixParallelRecoveryBitIdentical(t *testing.T) {
	const gens = 40
	kinds := []faults.Kind{faults.Crash, faults.Drop, faults.Delay}
	targets := []int{0, 2} // Nature Agent and an SSet rank
	topos := []string{"wellmixed", "ring:4"}
	kernels := []string{"auto", "full-replay"}

	goldens := map[string]parallel.Result{}
	for _, topo := range topos {
		for _, kernel := range kernels {
			g, err := parallel.Run(parallelCfg(t, gens, 0, topo, kernel))
			if err != nil {
				t.Fatalf("golden %s/%s: %v", topo, kernel, err)
			}
			goldens[topo+"/"+kernel] = g
		}
	}

	for _, kind := range kinds {
		for _, target := range targets {
			for _, topo := range topos {
				for _, kernel := range kernels {
					kind, target, topo, kernel := kind, target, topo, kernel
					name := fmt.Sprintf("%s/r%d/%s/%s", kind, target, topo, kernel)
					t.Run(name, func(t *testing.T) {
						ev := faults.Event{Kind: kind, Gen: 17, Rank: target}
						if kind == faults.Drop {
							// Enough consecutive drops to exhaust the retry
							// budget exactly once, then stay quiet so the
							// relaunched run sails through.
							ev.Count = mpi.RetryBudget + 1
						}
						cfg := parallelCfg(t, gens, 0, topo, kernel)
						cfg.Faults = faults.NewPlan(ev)
						res, rep, err := RunParallel(cfg, Policy{MaxRestarts: 3, SegmentEvery: 8})
						if err != nil {
							t.Fatalf("supervised run failed permanently: %v", err)
						}
						if kind != faults.Delay && rep.Restarts == 0 {
							t.Fatalf("fault %v never fired: 0 restarts", ev)
						}
						compareParallel(t, goldens[topo+"/"+kernel], res)
						if res.Metrics.Restarts != rep.Restarts {
							t.Errorf("Metrics.Restarts = %d, Report.Restarts = %d", res.Metrics.Restarts, rep.Restarts)
						}
						if rep.Restarts > 0 && res.Metrics.RecoveryNanos <= 0 {
							t.Errorf("RecoveryNanos = %d after %d restarts", res.Metrics.RecoveryNanos, rep.Restarts)
						}
					})
				}
			}
		}
	}
}

// TestRandomMidRunCrashRecovery is the acceptance criterion: a rank crash
// at a seed-derived mid-run generation recovers via the supervisor
// bit-identically, for both engines, noiseless and noisy.
func TestRandomMidRunCrashRecovery(t *testing.T) {
	const gens = 40
	for _, noise := range []float64{0, 0.05} {
		noise := noise
		// A seed-derived random mid-run generation and rank (parallel).
		evs := faults.RandomEvents(2013, 1, gens, 4)
		crashGen, crashRank := evs[0].Gen, evs[0].Rank
		t.Run(fmt.Sprintf("parallel/noise=%v", noise), func(t *testing.T) {
			golden, err := parallel.Run(parallelCfg(t, gens, noise, "wellmixed", "auto"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := parallelCfg(t, gens, noise, "wellmixed", "auto")
			cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: crashGen, Rank: crashRank})
			res, rep, err := RunParallel(cfg, Policy{MaxRestarts: 2, SegmentEvery: 7})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Restarts != 1 {
				t.Fatalf("Restarts = %d, want 1", rep.Restarts)
			}
			compareParallel(t, golden, res)
		})
		t.Run(fmt.Sprintf("serial/noise=%v", noise), func(t *testing.T) {
			base := serialCfg(noise)
			model, err := population.New(base)
			if err != nil {
				t.Fatal(err)
			}
			golden, err := model.Run(context.Background(), gens)
			if err != nil {
				t.Fatal(err)
			}
			cfg := serialCfg(noise)
			cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: crashGen, Rank: 0})
			res, rep, err := RunSerial(context.Background(), cfg, gens, Policy{MaxRestarts: 2, SegmentEvery: 7})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Restarts != 1 {
				t.Fatalf("Restarts = %d, want 1", rep.Restarts)
			}
			compareSerial(t, golden, res)
		})
	}
}

// compareSerial asserts strategy-table, event-count and full
// sample-trajectory equality between a golden and a recovered serial run.
func compareSerial(t *testing.T, golden, recovered population.Result) {
	t.Helper()
	if len(golden.FinalStrategies) != len(recovered.FinalStrategies) {
		t.Fatalf("strategy table sizes differ: %d vs %d", len(golden.FinalStrategies), len(recovered.FinalStrategies))
	}
	for i := range golden.FinalStrategies {
		if golden.FinalStrategies[i].String() != recovered.FinalStrategies[i].String() {
			t.Fatalf("strategy %d diverged: %s vs %s", i, golden.FinalStrategies[i], recovered.FinalStrategies[i])
		}
	}
	if golden.NatureStats != recovered.NatureStats {
		t.Fatalf("event counts diverged: %+v vs %+v", golden.NatureStats, recovered.NatureStats)
	}
	if golden.Generations != recovered.Generations {
		t.Fatalf("generations diverged: %d vs %d", golden.Generations, recovered.Generations)
	}
	if len(golden.Samples) != len(recovered.Samples) {
		t.Fatalf("sample counts diverged: %d vs %d", len(golden.Samples), len(recovered.Samples))
	}
	for i := range golden.Samples {
		if golden.Samples[i] != recovered.Samples[i] {
			t.Fatalf("sample %d diverged: %+v vs %+v", i, golden.Samples[i], recovered.Samples[i])
		}
	}
	if golden.TotalGamesPlayed != recovered.TotalGamesPlayed {
		t.Fatalf("games diverged: %d vs %d", golden.TotalGamesPlayed, recovered.TotalGamesPlayed)
	}
}

// TestSerialCrashBeforeFirstCheckpointRestartsFresh pins the no-segment
// path: a crash before any checkpoint exists relaunches from scratch, the
// consumed event does not re-fire, and the result is still bit-identical.
func TestSerialCrashBeforeFirstCheckpointRestartsFresh(t *testing.T) {
	const gens = 30
	base := serialCfg(0)
	model, err := population.New(base)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := model.Run(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serialCfg(0)
	cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 2, Rank: 0})
	res, rep, err := RunSerial(context.Background(), cfg, gens, Policy{MaxRestarts: 1, SegmentEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	compareSerial(t, golden, res)
}

// TestSerialResumedRunRecoversBitIdentical pins RunSerial on a config that
// already resumes a checkpoint: the generation horizon counts from the
// resume point, a crash after it recovers from the supervisor's own
// segment, and the stitched samples, table and counters equal the
// uninterrupted resumed run's.
func TestSerialResumedRunRecoversBitIdentical(t *testing.T) {
	const gens = 30
	first, err := population.New(serialCfg(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Run(context.Background(), gens); err != nil {
		t.Fatal(err)
	}
	snap := first.Snapshot()
	resumed := serialCfg(0.05)
	resumed.Resume = &snap
	ref, err := population.New(resumed)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := ref.Run(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	// Segments land at 35 and 42; the crash at 47 resumes from 42 and
	// replays the samples at 45 and beyond.
	cfg := resumed
	cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 47, Rank: 0})
	res, rep, err := RunSerial(context.Background(), cfg, gens, Policy{MaxRestarts: 2, SegmentEvery: 7})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	compareSerial(t, golden, res)
}

// TestStaleCheckpointIsNotASegment pins that a file left at CheckpointPath
// by an earlier run is never resumed as a segment: that run recorded the
// same identity under different parameters (noise is not recorded), so a
// crash before this run's first segment must relaunch from the start, for
// both engines, and still end bit-identical to the fault-free run.
func TestStaleCheckpointIsNotASegment(t *testing.T) {
	const gens = 30
	pol := Policy{MaxRestarts: 1, SegmentEvery: 20}
	t.Run("serial", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		stale := serialCfg(0.05)
		stale.CheckpointPath = path
		if _, _, err := RunSerial(context.Background(), stale, gens, Policy{}); err != nil {
			t.Fatal(err)
		}
		golden, _, err := RunSerial(context.Background(), serialCfg(0), gens, Policy{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := serialCfg(0)
		cfg.CheckpointPath = path
		cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 2, Rank: 0})
		res, rep, err := RunSerial(context.Background(), cfg, gens, pol)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restarts != 1 {
			t.Fatalf("Restarts = %d, want 1", rep.Restarts)
		}
		compareSerial(t, golden, res)
	})
	t.Run("parallel", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		stale := parallelCfg(t, gens, 0.05, "wellmixed", "auto")
		stale.CheckpointPath = path
		if _, err := parallel.Run(stale); err != nil {
			t.Fatal(err)
		}
		golden, err := parallel.Run(parallelCfg(t, gens, 0, "wellmixed", "auto"))
		if err != nil {
			t.Fatal(err)
		}
		cfg := parallelCfg(t, gens, 0, "wellmixed", "auto")
		cfg.CheckpointPath = path
		cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 2, Rank: 1})
		res, rep, err := RunParallel(cfg, pol)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Restarts != 1 {
			t.Fatalf("Restarts = %d, want 1", rep.Restarts)
		}
		compareParallel(t, golden, res)
	})
}

// TestSupervisorGivesUpAfterMaxRestarts pins the bounded-retry contract: a
// permanent fault exhausts MaxRestarts and surfaces the transient error.
func TestSupervisorGivesUpAfterMaxRestarts(t *testing.T) {
	cfg := serialCfg(0)
	cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 1, Rank: 0, Count: -1})
	_, rep, err := RunSerial(context.Background(), cfg, 30, Policy{MaxRestarts: 2, SegmentEvery: 5, BackoffBase: time.Microsecond})
	if err == nil {
		t.Fatal("permanent crash recovered; want failure")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("error %v, want faults.ErrInjected", err)
	}
	if rep.Restarts != 2 {
		t.Fatalf("Restarts = %d, want MaxRestarts=2", rep.Restarts)
	}
	if len(rep.Recovered) != 2 {
		t.Fatalf("Recovered records %d failures, want 2", len(rep.Recovered))
	}
}

// TestFatalErrorsAreNotRetried pins the transient/fatal classification on
// the run path: context cancellation is fatal and performs no restarts.
func TestFatalErrorsAreNotRetried(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := serialCfg(0)
	_, rep, err := RunSerial(ctx, cfg, 30, Policy{MaxRestarts: 5, SegmentEvery: 5})
	if err == nil {
		t.Fatal("cancelled run succeeded")
	}
	if rep.Restarts != 0 {
		t.Fatalf("fatal error was retried %d times", rep.Restarts)
	}
}

func TestTransientClassification(t *testing.T) {
	transient := []error{
		mpi.ErrRankFailed,
		mpi.ErrDeadline,
		mpi.ErrSendFailed,
		faults.ErrInjected,
		&faults.CrashError{Rank: 1, Gen: 3},
		&mpi.RankError{Rank: 2, Gen: 5, Err: errors.New("x")},
		fmt.Errorf("wrapped: %w", mpi.ErrDeadline),
	}
	for _, err := range transient {
		if !Transient(err) {
			t.Errorf("Transient(%v) = false, want true", err)
		}
	}
	fatal := []error{
		nil,
		errors.New("validation: NumSSets must be at least 2"),
		context.Canceled,
		os.ErrNotExist,
	}
	for _, err := range fatal {
		if Transient(err) {
			t.Errorf("Transient(%v) = true, want false", err)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	bad := []Policy{
		{MaxRestarts: -1},
		{SegmentEvery: -1},
		{BackoffBase: -time.Second},
		{BackoffCap: -time.Second},
	}
	for i, pol := range bad {
		if _, _, err := RunSerial(context.Background(), serialCfg(0), 5, pol); err == nil {
			t.Errorf("case %d: invalid policy accepted", i)
		}
		if _, _, err := RunParallel(parallelCfg(t, 5, 0, "wellmixed", "auto"), pol); err == nil {
			t.Errorf("case %d: invalid policy accepted by RunParallel", i)
		}
	}
	if _, _, err := RunSerial(context.Background(), serialCfg(0), -1, Policy{}); err == nil {
		t.Error("negative generation count accepted")
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	pol := Policy{BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond}
	want := []time.Duration{
		1: time.Millisecond,
		2: 2 * time.Millisecond,
		3: 4 * time.Millisecond,
		4: 4 * time.Millisecond, // capped
	}
	for restart := 1; restart < len(want); restart++ {
		if got := pol.backoff(restart); got != want[restart] {
			t.Errorf("backoff(%d) = %v, want %v", restart, got, want[restart])
		}
	}
	if d := (Policy{}).backoff(1); d != DefaultBackoffBase {
		t.Errorf("zero-policy backoff(1) = %v, want %v", d, DefaultBackoffBase)
	}
}

// TestRecoverySweepsStaleCheckpointTemps is the integration side of the
// stale-temporary satellite: a partial envelope stranded next to the
// checkpoint (as an injected crash between temp-write and rename would
// leave) is removed by the supervisor's recovery sweep, and the checkpoint
// itself stays usable.
func TestRecoverySweepsStaleCheckpointTemps(t *testing.T) {
	const gens = 30
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	stale := path + ".tmp-314159"
	if err := os.WriteFile(stale, []byte("partial envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := serialCfg(0)
	model, err := population.New(base)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := model.Run(context.Background(), gens)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serialCfg(0)
	cfg.CheckpointPath = path
	cfg.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 12, Rank: 0})
	res, rep, err := RunSerial(context.Background(), cfg, gens, Policy{MaxRestarts: 2, SegmentEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", rep.Restarts)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale checkpoint temporary survived supervised recovery")
	}
	compareSerial(t, golden, res)
}
