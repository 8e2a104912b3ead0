package evogame

import (
	"context"
	"fmt"

	"evogame/internal/ensemble"
	"evogame/internal/faults"
)

// EnsembleConfig configures RunEnsemble: many independent replicates of one
// simulation configuration run concurrently under a bounded worker pool —
// the shape of every averaged result in the paper.  Exactly one of
// Simulation and Parallel selects the engine and carries the per-run
// configuration; its Seed is the base seed replicate seeds derive from
// (replicate 0 runs the base seed itself) and its Generations field sets
// the run length.
//
// Worker budget: ensemble-level concurrency and per-run worker fan-out
// multiply, so by default the two tiers split GOMAXPROCS instead of
// oversubscribing it — EnsembleWorkers resolves to min(Replicates,
// GOMAXPROCS), and an unset per-run Workers / WorkersPerRank resolves to
// GOMAXPROCS divided by the resolved ensemble workers (floor 1).
// Explicitly set values win on both tiers.
type EnsembleConfig struct {
	// Replicates is the number of independent runs (>= 1); replicate k runs
	// with a seed derived deterministically from the base seed and k.
	Replicates int
	// EnsembleWorkers bounds how many replicates run concurrently.  Zero
	// selects min(Replicates, GOMAXPROCS); negative values are rejected.
	EnsembleWorkers int
	// PrivateCaches disables cross-run cache sharing: every replicate
	// builds its own pair cache exactly as a solo run would (a distributed
	// replicate one for all its SSet ranks).  Results are identical either
	// way; the flag exists for benchmarking the sharing and for bounding
	// memory per run.
	PrivateCaches bool
	// Simulation, when non-nil, runs the replicates on the serial engine.
	Simulation *SimulationConfig
	// Parallel, when non-nil, runs the replicates on the distributed
	// engine.
	Parallel *ParallelConfig
	// FaultPlan, when non-empty, arms a deterministic fault-injection plan
	// in every replicate (same spec grammar as SimulationConfig.FaultPlan).
	// The spec is instantiated per replicate with that replicate's derived
	// seed, so each replicate injects its own reproducible fault sequence.
	// Fault injection is ensemble-level here: the engine configs' own
	// FaultPlan must stay empty (one shared plan would race across
	// concurrent replicates).
	FaultPlan string
	// MaxRestarts, when positive, runs every replicate under the
	// supervisor: transiently-failed replicates are recovered from their
	// newest checkpoint segment up to MaxRestarts times before counting as
	// permanently failed.  Zero disables recovery.
	MaxRestarts int
	// SegmentEvery is the supervisor's checkpoint cadence in generations;
	// only meaningful with MaxRestarts > 0.
	SegmentEvery int
}

// EnsembleTrajectoryPoint is one generation of the ensemble-aggregated
// trajectory: mean and standard deviation over replicates at one sampled
// generation (serial-engine ensembles only; the distributed engine does not
// record per-generation samples).
type EnsembleTrajectoryPoint struct {
	// Generation is the sampled generation, identical across replicates.
	Generation int
	// CooperationMean is the mean over replicates of 1 - MeanDefectingStates
	// (the fraction of strategy-table states prescribing cooperation), and
	// CooperationStd its sample standard deviation.
	CooperationMean float64
	CooperationStd  float64
	// WSLSMean and WSLSStd aggregate the fraction of SSets holding the
	// canonical Win-Stay Lose-Shift strategy.
	WSLSMean float64
	WSLSStd  float64
}

// EnsembleResult is the outcome of RunEnsemble: every replicate's full
// result (each bit-identical to running its seed solo) plus deterministic
// aggregates.
type EnsembleResult struct {
	// Seeds[k] is the derived seed replicate k ran with.
	Seeds []uint64
	// Serial holds the per-replicate results of a serial-engine ensemble
	// (nil for a distributed one), indexed by replicate.
	Serial []SimulationResult
	// Parallel holds the per-replicate results of a distributed-engine
	// ensemble (nil for a serial one), indexed by replicate.
	Parallel []ParallelResult
	// Errors[k] is non-nil when replicate k failed permanently (after any
	// supervised restarts were exhausted); its slot in Serial / Parallel is
	// then at best partial and is excluded from Trajectory and Metrics.
	// The slice always has one entry per replicate.
	Errors []error
	// Trajectory is the mean/std cooperation trajectory over the completed
	// replicates, one point per sampled generation (serial ensembles; set
	// SimulationConfig.SampleEvery for more than the final point).
	Trajectory []EnsembleTrajectoryPoint
	// Metrics merges every completed replicate's flat metrics (counters
	// summed; see Metrics.Merge).
	Metrics Metrics
	// EnsembleWorkers and RunWorkers record the resolved worker budget.
	EnsembleWorkers int
	RunWorkers      int
	// WallClockSeconds is the end-to-end ensemble time.
	WallClockSeconds float64
}

// RunEnsemble runs cfg.Replicates independent replicates of the configured
// simulation concurrently and aggregates them.  Each replicate is
// bit-identical to running its derived seed solo: for noiseless cached
// configurations all replicates share one pair-cache store (replicate k is
// served every pair any earlier replicate already played), while noisy or
// mixed configurations keep the engines' existing bypass so RNG streams
// never move.  Checkpointing is per-run and must be disabled in the base
// configuration.
//
// Failure degrades gracefully: a permanently-failed replicate is reported
// in EnsembleResult.Errors at its index while the other replicates
// complete and aggregate.  The returned error is the lowest-index failure
// (nil when all completed) and the partial result is always returned, so
// callers may inspect Errors and keep the survivors.  With
// cfg.MaxRestarts > 0 each replicate runs supervised and transient
// failures are recovered before they count.
func RunEnsemble(ctx context.Context, cfg EnsembleConfig) (EnsembleResult, error) {
	if (cfg.Simulation == nil) == (cfg.Parallel == nil) {
		return EnsembleResult{}, fmt.Errorf("evogame: RunEnsemble needs exactly one of Simulation and Parallel")
	}
	if cfg.Simulation != nil && (cfg.Simulation.FaultPlan != "" || cfg.Simulation.MaxRestarts != 0 || cfg.Simulation.SegmentEvery != 0) {
		return EnsembleResult{}, fmt.Errorf("evogame: RunEnsemble: fault injection and supervision are ensemble-level; set EnsembleConfig.FaultPlan / MaxRestarts / SegmentEvery, not SimulationConfig's")
	}
	if cfg.Parallel != nil && (cfg.Parallel.FaultPlan != "" || cfg.Parallel.MaxRestarts != 0 || cfg.Parallel.SegmentEvery != 0) {
		return EnsembleResult{}, fmt.Errorf("evogame: RunEnsemble: fault injection and supervision are ensemble-level; set EnsembleConfig.FaultPlan / MaxRestarts / SegmentEvery, not ParallelConfig's")
	}
	ecfg := ensemble.Config{
		Replicates:    cfg.Replicates,
		Workers:       cfg.EnsembleWorkers,
		PrivateCaches: cfg.PrivateCaches,
		MaxRestarts:   cfg.MaxRestarts,
		SegmentEvery:  cfg.SegmentEvery,
	}
	if cfg.FaultPlan != "" {
		spec := cfg.FaultPlan
		baseSeed, ranks := uint64(0), 1
		if cfg.Simulation != nil {
			baseSeed = cfg.Simulation.Seed
		} else {
			baseSeed, ranks = cfg.Parallel.Seed, cfg.Parallel.Ranks
		}
		// Validate the spec once up front so a bad plan fails the call
		// instead of every replicate.
		if _, err := faults.Parse(spec, baseSeed, ranks); err != nil {
			return EnsembleResult{}, fmt.Errorf("evogame: %w", err)
		}
		ecfg.ReplicateFaults = func(k int) *faults.Plan {
			plan, _ := faults.Parse(spec, ensemble.ReplicateSeed(baseSeed, k), ranks)
			return plan
		}
	}
	if cfg.Simulation != nil {
		internal, err := cfg.Simulation.toInternal()
		if err != nil {
			return EnsembleResult{}, err
		}
		res, err := ensemble.RunSerial(ctx, internal, cfg.Simulation.Generations, ecfg)
		if err != nil && res.Errors == nil {
			// Configuration error before any replicate ran.
			return EnsembleResult{}, fmt.Errorf("evogame: %w", err)
		}
		out := EnsembleResult{
			Seeds:            res.Seeds,
			Serial:           make([]SimulationResult, len(res.Runs)),
			Errors:           res.Errors,
			Metrics:          metricsFromInternal(res.Metrics),
			EnsembleWorkers:  res.EnsembleWorkers,
			RunWorkers:       res.RunWorkers,
			WallClockSeconds: res.WallClock.Seconds(),
		}
		for k, r := range res.Runs {
			out.Serial[k] = serialResultFromInternal(r)
		}
		for _, p := range res.Trajectory {
			out.Trajectory = append(out.Trajectory, EnsembleTrajectoryPoint{
				Generation:      p.Generation,
				CooperationMean: p.Cooperation,
				CooperationStd:  p.CooperationStd,
				WSLSMean:        p.WSLS,
				WSLSStd:         p.WSLSStd,
			})
		}
		if err != nil {
			return out, fmt.Errorf("evogame: %w", err)
		}
		return out, nil
	}
	internal, err := cfg.Parallel.toInternal()
	if err != nil {
		return EnsembleResult{}, err
	}
	res, err := ensemble.RunParallel(internal, ecfg)
	if err != nil && res.Errors == nil {
		return EnsembleResult{}, fmt.Errorf("evogame: %w", err)
	}
	out := EnsembleResult{
		Seeds:            res.Seeds,
		Parallel:         make([]ParallelResult, len(res.Runs)),
		Errors:           res.Errors,
		Metrics:          metricsFromInternal(res.Metrics),
		EnsembleWorkers:  res.EnsembleWorkers,
		RunWorkers:       res.RunWorkers,
		WallClockSeconds: res.WallClock.Seconds(),
	}
	for k, r := range res.Runs {
		out.Parallel[k] = parallelResultFromInternal(r)
	}
	if err != nil {
		return out, fmt.Errorf("evogame: %w", err)
	}
	return out, nil
}
