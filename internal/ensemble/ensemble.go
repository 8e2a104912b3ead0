// Package ensemble runs many independent replicates of one simulation
// configuration — the shape of every headline result in the paper (the
// Figure 5 memory sweep, the Figure 6 scaling study, every averaged
// trajectory) — concurrently under a bounded worker pool, and aggregates
// them deterministically.
//
// Each replicate k runs the underlying engine (serial or distributed)
// unchanged with a seed derived by ReplicateSeed, so its trajectory is
// bit-identical to running that seed solo.  The throughput win is
// cross-run sharing: for noiseless cached configurations all replicates
// evaluate fitness through per-run views over one shared fitness.PairCache
// store (one interning registry, 64 lock-free shards of memoized pair
// results; see fitness.NewStore), so replicate k starts with every pair
// any earlier replicate already played served as a cache hit.  Noisy
// configurations keep the engines' existing bypass — no store is built —
// so RNG streams never move.
//
// Worker budget: ensemble-level concurrency and per-run worker fan-out
// multiply, so by default the two tiers split GOMAXPROCS instead of
// oversubscribing it — EnsembleWorkers resolves to min(Replicates,
// GOMAXPROCS) and a distributed replicate's unset WorkersPerRank resolves
// to GOMAXPROCS divided by the ensemble workers (floor 1).  Explicitly set
// values win on both tiers.  A serial replicate plays on its own
// goroutine, so it has no per-run tier.
package ensemble

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"evogame/internal/faults"
	"evogame/internal/fitness"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/stats"
	"evogame/internal/supervise"
)

// Config controls the ensemble tier: how many replicates to run and how
// many of them may be in flight at once.  The per-run configuration (and
// the base seed the replicate seeds derive from) comes from the engine
// config passed to RunSerial / RunParallel.
type Config struct {
	// Replicates is the number of independent runs; it must be at least 1.
	// Replicate k runs with seed ReplicateSeed(base.Seed, k).
	Replicates int
	// Workers bounds how many replicates run concurrently.  Zero selects
	// min(Replicates, GOMAXPROCS); negative values are rejected.
	Workers int
	// PrivateCaches disables cross-run sharing: every replicate builds its
	// own PairCache exactly as a solo run would (a distributed replicate one
	// store for all its SSet ranks).  Results are identical either way (the
	// shared store only changes which lookups hit); the flag exists for
	// benchmarking the sharing itself and for keeping memory bounded per
	// run.
	PrivateCaches bool
	// ReplicateCheckpoint, when non-nil, gives every replicate its own
	// checkpoint destination: replicate k writes its final resumable (v4)
	// snapshot to the returned path with the returned label.  This is the
	// supported way to checkpoint an ensemble — the base config's single
	// CheckpointPath stays rejected because replicates would race on one
	// file — and it is what makes the paper-artifact pipeline incremental:
	// each (cell, replicate) run persists its own envelope, so a collector
	// can re-render tables from whatever snapshots exist.  Checkpoints are
	// final-state only; for periodic mid-run checkpoints run the replicate
	// solo.
	ReplicateCheckpoint func(k int) (path, label string)
	// Skip, when non-nil, excludes replicate k from execution when it
	// returns true.  Seeds are still derived by index, so the replicates
	// that do run are bit-identical to a full ensemble (cross-run cache
	// sharing only changes which lookups hit).  Skipped slots are left as
	// zero values in Runs and contribute nothing to the merged metrics or
	// the aggregated trajectory (both fold over completed replicates only).
	Skip func(k int) bool
	// MaxRestarts, when positive, runs every replicate under the
	// supervisor (internal/supervise): a replicate that fails transiently
	// — an injected fault, a dead rank, an expired communication deadline —
	// is relaunched from its newest checkpoint segment up to MaxRestarts
	// times before being declared permanently failed.  Zero disables
	// supervision: the first failure of a replicate is final.
	MaxRestarts int
	// SegmentEvery is the supervisor's checkpoint cadence in generations
	// (supervise.Policy.SegmentEvery); it only matters when MaxRestarts is
	// positive.
	SegmentEvery int
	// ReplicateFaults, when non-nil, installs the returned fault plan in
	// replicate k (nil plans inject nothing).  Plans must be per-replicate:
	// a faults.Plan consumes its events as they fire, so sharing one plan
	// across concurrent replicates would race on the arming state.
	ReplicateFaults func(k int) *faults.Plan
}

// resolveWorkers applies the worker-budget rule to the ensemble tier.
func (c Config) resolveWorkers() (int, error) {
	if c.Replicates < 1 {
		return 0, fmt.Errorf("ensemble: Replicates must be at least 1, got %d", c.Replicates)
	}
	if c.Workers < 0 {
		return 0, fmt.Errorf("ensemble: Workers must be non-negative, got %d (0 selects min(Replicates, GOMAXPROCS))", c.Workers)
	}
	w := c.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Replicates {
		w = c.Replicates
	}
	return w, nil
}

// perRunWorkers returns the default per-run worker budget when the engine
// config leaves it unset: the share of GOMAXPROCS left to each of the
// ensembleWorkers concurrent runs, never below 1.
func perRunWorkers(ensembleWorkers int) int {
	w := runtime.GOMAXPROCS(0) / ensembleWorkers
	if w < 1 {
		w = 1
	}
	return w
}

// ReplicateSeed derives the seed of replicate k from the base seed.
// Replicate 0 runs the base seed itself, so a one-replicate ensemble is the
// solo run; later replicates mix k through a splitmix64-style finalizer so
// the derived seeds are uncorrelated but reproducible.
func ReplicateSeed(base uint64, k int) uint64 {
	if k == 0 {
		return base
	}
	x := base + uint64(k)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TrajectoryPoint is one generation of the ensemble-aggregated trajectory:
// mean and standard deviation (over replicates) of the population's
// cooperativity and WSLS abundance at that sampled generation.
type TrajectoryPoint struct {
	// Generation is the sampled generation (identical across replicates).
	Generation int
	// Cooperation is 1 - MeanDefectingStates averaged over replicates, and
	// CooperationStd its sample standard deviation.
	Cooperation    float64
	CooperationStd float64
	// WSLS is the mean fraction of SSets holding the canonical
	// win-stay-lose-shift strategy, WSLSStd its standard deviation.
	WSLS    float64
	WSLSStd float64
}

// SerialResult is the outcome of an ensemble of serial-engine runs.
type SerialResult struct {
	// Seeds[k] is the seed replicate k ran with.
	Seeds []uint64
	// Runs[k] is replicate k's full result, bit-identical to running
	// Seeds[k] solo with a private cache.
	Runs []population.Result
	// Errors[k] is non-nil when replicate k failed permanently (after any
	// supervised restarts were exhausted); its slot in Runs is then at best
	// a partial result and is excluded from Trajectory and Metrics.  The
	// slice always has one entry per replicate.
	Errors []error
	// Trajectory is the mean/std cooperation trajectory over the
	// completed replicates, one point per sampled generation.
	Trajectory []TrajectoryPoint
	// Metrics merges every replicate's flat metrics (counters summed,
	// batch-lane occupancy re-weighted by calls; see fitness.Metrics.Merge).
	Metrics fitness.Metrics
	// EnsembleWorkers records the resolved ensemble tier.  RunWorkers is
	// always 1: a serial replicate plays every game on its own goroutine
	// (population.Config.Workers bounds nothing).
	EnsembleWorkers int
	RunWorkers      int
	// WallClock is the end-to-end ensemble time.
	WallClock time.Duration
}

// RunSerial runs cfg.Replicates serial-engine replicates of base
// concurrently and aggregates them.  Replicate k runs base with
// Seed=ReplicateSeed(base.Seed, k); for noiseless cached configurations all
// replicates share one PairCache store unless cfg.PrivateCaches is set.
// Checkpointing must be disabled in base — replicates would race on one
// file — and base.SharedCache and base.Resume must be unset (the ensemble
// owns the store, and a snapshot belongs to one seed).
//
// Failure degrades gracefully: a permanently-failed replicate is reported
// in SerialResult.Errors at its index while the other replicates complete
// and aggregate, and the returned error is the lowest-index failure (nil
// when all completed).  With cfg.MaxRestarts > 0 each replicate runs
// supervised and transient failures are recovered before they count.
func RunSerial(ctx context.Context, base population.Config, generations int, cfg Config) (SerialResult, error) {
	workers, err := cfg.resolveWorkers()
	if err != nil {
		return SerialResult{}, err
	}
	if err := checkBase(base.CheckpointPath, base.CheckpointEvery, base.SharedCache != nil, base.Resume != nil); err != nil {
		return SerialResult{}, err
	}
	if !cfg.PrivateCaches {
		if base.SharedCache, err = fitness.NewStore(base.EngineConfig(), base.EvalMode); err != nil {
			return SerialResult{}, err
		}
	}

	n := cfg.Replicates
	res := SerialResult{
		Seeds:           make([]uint64, n),
		Runs:            make([]population.Result, n),
		EnsembleWorkers: workers,
		RunWorkers:      1,
	}
	for k := 0; k < n; k++ {
		res.Seeds[k] = ReplicateSeed(base.Seed, k)
	}
	res.Errors = make([]error, n)
	start := time.Now()
	runReplicates(workers, n, func(k int) {
		if cfg.Skip != nil && cfg.Skip(k) {
			return
		}
		rcfg := base
		rcfg.Seed = res.Seeds[k]
		if cfg.ReplicateCheckpoint != nil {
			rcfg.CheckpointPath, rcfg.CheckpointLabel = cfg.ReplicateCheckpoint(k)
		}
		if cfg.ReplicateFaults != nil {
			rcfg.Faults = cfg.ReplicateFaults(k)
		}
		if cfg.MaxRestarts > 0 {
			pol := supervise.Policy{MaxRestarts: cfg.MaxRestarts, SegmentEvery: cfg.SegmentEvery}
			res.Runs[k], _, res.Errors[k] = supervise.RunSerial(ctx, rcfg, generations, pol)
			return
		}
		model, err := population.New(rcfg)
		if err != nil {
			res.Errors[k] = err
			return
		}
		res.Runs[k], res.Errors[k] = model.Run(ctx, generations)
		model.Release()
	})
	res.WallClock = time.Since(start)
	ok := completedSerial(res.Runs, res.Errors, cfg.Skip)
	res.Trajectory = aggregateTrajectory(ok)
	res.Metrics = mergeMetrics(serialMetrics(ok))
	return res, firstReplicateError(res.Errors, res.Seeds)
}

// ParallelResult is the outcome of an ensemble of distributed-engine runs.
type ParallelResult struct {
	// Seeds[k] is the seed replicate k ran with.
	Seeds []uint64
	// Runs[k] is replicate k's full result, bit-identical to running
	// Seeds[k] solo with private caches.
	Runs []parallel.Result
	// Errors[k] is non-nil when replicate k failed permanently (after any
	// supervised restarts were exhausted); its slot is then excluded from
	// Metrics.  The slice always has one entry per replicate.
	Errors []error
	// Metrics merges every completed replicate's flat metrics.
	Metrics fitness.Metrics
	// EnsembleWorkers and RunWorkers record the resolved worker budget:
	// RunWorkers is each replicate's WorkersPerRank.
	EnsembleWorkers int
	RunWorkers      int
	// WallClock is the end-to-end ensemble time.  Because replicates run
	// concurrently it is less than the sum of the per-run WallClock fields.
	WallClock time.Duration
}

// RunParallel runs cfg.Replicates distributed-engine replicates of base
// concurrently and aggregates them; the sharing, seed-derivation and
// worker-budget rules match RunSerial (every SSet rank of every replicate
// gets its own view of the one store, as a solo run's ranks share their
// run's store), as do the graceful-degradation and supervision rules (see
// RunSerial).
func RunParallel(base parallel.Config, cfg Config) (ParallelResult, error) {
	workers, err := cfg.resolveWorkers()
	if err != nil {
		return ParallelResult{}, err
	}
	if err := checkBase(base.CheckpointPath, base.CheckpointEvery, base.SharedCache != nil, base.Resume != nil); err != nil {
		return ParallelResult{}, err
	}
	if base.WorkersPerRank == 0 {
		base.WorkersPerRank = perRunWorkers(workers)
	}
	if !cfg.PrivateCaches {
		if base.SharedCache, err = fitness.NewStore(base.EngineConfig(), base.EvalMode); err != nil {
			return ParallelResult{}, err
		}
	}

	n := cfg.Replicates
	res := ParallelResult{
		Seeds:           make([]uint64, n),
		Runs:            make([]parallel.Result, n),
		EnsembleWorkers: workers,
		RunWorkers:      base.WorkersPerRank,
	}
	for k := 0; k < n; k++ {
		res.Seeds[k] = ReplicateSeed(base.Seed, k)
	}
	res.Errors = make([]error, n)
	start := time.Now()
	runReplicates(workers, n, func(k int) {
		if cfg.Skip != nil && cfg.Skip(k) {
			return
		}
		rcfg := base
		rcfg.Seed = res.Seeds[k]
		if cfg.ReplicateCheckpoint != nil {
			rcfg.CheckpointPath, rcfg.CheckpointLabel = cfg.ReplicateCheckpoint(k)
		}
		if cfg.ReplicateFaults != nil {
			if plan := cfg.ReplicateFaults(k); plan != nil {
				rcfg.Faults = plan
			}
		}
		if cfg.MaxRestarts > 0 {
			pol := supervise.Policy{MaxRestarts: cfg.MaxRestarts, SegmentEvery: cfg.SegmentEvery}
			res.Runs[k], _, res.Errors[k] = supervise.RunParallel(rcfg, pol)
			return
		}
		res.Runs[k], res.Errors[k] = parallel.Run(rcfg)
	})
	res.WallClock = time.Since(start)
	var mets []fitness.Metrics
	for k, r := range res.Runs {
		if res.Errors[k] != nil || (cfg.Skip != nil && cfg.Skip(k)) {
			continue
		}
		mets = append(mets, r.Metrics)
	}
	res.Metrics = mergeMetrics(mets)
	return res, firstReplicateError(res.Errors, res.Seeds)
}

// checkBase rejects the base-config settings that belong to one run, not
// to an ensemble: a checkpoint file, a pair store and a snapshot to resume.
func checkBase(checkpoint string, checkpointEvery int, sharedCache, resume bool) error {
	switch {
	case checkpoint != "" || checkpointEvery != 0:
		return fmt.Errorf("ensemble: checkpointing is per-run (replicates would race on %q); use Config.ReplicateCheckpoint for per-replicate snapshots", checkpoint)
	case sharedCache:
		return fmt.Errorf("ensemble: base.SharedCache must be unset; the ensemble manages the shared store")
	case resume:
		return fmt.Errorf("ensemble: Resume is per-run; resume the single run it belongs to")
	}
	return nil
}

// runReplicates executes fn(0..n-1) on a pool of `workers` goroutines.
// Replicate indices are handed out in order; results land in
// index-addressed slices, so aggregation order never depends on scheduling.
func runReplicates(workers, n int, fn func(k int)) {
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for k := range idx {
				fn(k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		idx <- k
	}
	close(idx)
	wg.Wait()
}

// completedSerial filters the serial results down to the replicates that
// ran and finished: not skipped, no permanent error.
func completedSerial(runs []population.Result, errs []error, skip func(int) bool) []population.Result {
	ok := make([]population.Result, 0, len(runs))
	for k, r := range runs {
		if errs[k] != nil || (skip != nil && skip(k)) {
			continue
		}
		ok = append(ok, r)
	}
	return ok
}

// firstReplicateError preserves the pre-degradation error contract: the
// returned error is the failure of the lowest-index failed replicate, or
// nil when every replicate completed.  Callers that want the partial
// ensemble inspect Errors on the (always returned) result instead.
func firstReplicateError(errs []error, seeds []uint64) error {
	for k, err := range errs {
		if err != nil {
			return fmt.Errorf("ensemble: replicate %d (seed %d): %w", k, seeds[k], err)
		}
	}
	return nil
}

// serialMetrics projects the per-run metrics out of serial results.
func serialMetrics(runs []population.Result) []fitness.Metrics {
	mets := make([]fitness.Metrics, len(runs))
	for k, r := range runs {
		mets[k] = r.Metrics
	}
	return mets
}

// mergeMetrics folds per-replicate metrics in replicate order.
func mergeMetrics(mets []fitness.Metrics) fitness.Metrics {
	var merged fitness.Metrics
	for k, m := range mets {
		if k == 0 {
			merged = m
			continue
		}
		merged.Merge(m)
	}
	return merged
}

// aggregateTrajectory folds the replicates' abundance samples into mean/std
// points.  Replicates of one configuration sample the same generations; a
// point is emitted only for sample indices where every replicate agrees on
// the generation, so a ragged edge degrades to a shorter trajectory rather
// than mixing generations.
func aggregateTrajectory(runs []population.Result) []TrajectoryPoint {
	if len(runs) == 0 {
		return nil
	}
	minLen := len(runs[0].Samples)
	for _, r := range runs[1:] {
		if len(r.Samples) < minLen {
			minLen = len(r.Samples)
		}
	}
	traj := make([]TrajectoryPoint, 0, minLen)
	for j := 0; j < minLen; j++ {
		gen := runs[0].Samples[j].Generation
		aligned := true
		var coop, wsls stats.Welford
		for _, r := range runs {
			s := r.Samples[j]
			if s.Generation != gen {
				aligned = false
				break
			}
			coop.Add(1 - s.MeanDefectingStates)
			wsls.Add(s.WSLSFraction)
		}
		if !aligned {
			break
		}
		traj = append(traj, TrajectoryPoint{
			Generation:     gen,
			Cooperation:    coop.Mean(),
			CooperationStd: coop.StdDev(),
			WSLS:           wsls.Mean(),
			WSLSStd:        wsls.StdDev(),
		})
	}
	return traj
}
