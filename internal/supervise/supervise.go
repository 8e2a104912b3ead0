// Package supervise recovers simulation runs from rank failures.  It runs
// an engine in checkpointed segments, catches the typed failures the
// hardened fabric surfaces (mpi.ErrRankFailed, mpi.ErrDeadline,
// mpi.ErrSendFailed) and the injected faults of internal/faults,
// classifies them transient or fatal, and relaunches from the latest
// format-v4 envelope with bounded restarts and capped exponential
// backoff.
//
// Determinism under recovery: the v4 envelope captures the complete
// resume state of a run (strategy table, Nature Agent stream and event
// counters, generation; the serial engine adds its game stream), and
// resuming from it is bit-identical to never having stopped (pinned since
// the checkpoint PR).  Fault events are consumed as they fire, so a crash
// that already killed one attempt is not re-armed on the next.  Together
// these give the supervisor's contract: a run killed at any generation
// and recovered produces the same trajectory, final strategy table and
// event counters as the fault-free run — only the recovery counters
// (restarts, retried sends, recovery wall time) differ.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"evogame/internal/checkpoint"
	"evogame/internal/faults"
	"evogame/internal/mpi"
	"evogame/internal/parallel"
	"evogame/internal/population"
)

// Default backoff bounds between restart attempts.
const (
	DefaultBackoffBase = 2 * time.Millisecond
	DefaultBackoffCap  = 250 * time.Millisecond
)

// Policy bounds the supervisor's recovery behaviour.
type Policy struct {
	// MaxRestarts is how many times a transiently-failed run is relaunched
	// before the supervisor gives up and returns the failure.  Zero means
	// no recovery: the first failure is final.
	MaxRestarts int
	// SegmentEvery is the checkpoint cadence in generations: the run is
	// segmented by a periodic save every SegmentEvery generations, and
	// recovery resumes from the newest complete segment.  Zero keeps the
	// config's own CheckpointEvery (recovery then restarts from scratch if
	// the run never checkpoints).
	SegmentEvery int
	// BackoffBase is the delay before the first relaunch, doubling per
	// restart; zero selects DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential backoff; zero selects
	// DefaultBackoffCap.
	BackoffCap time.Duration
}

func (p Policy) validate() error {
	if p.MaxRestarts < 0 {
		return fmt.Errorf("supervise: MaxRestarts must be non-negative, got %d", p.MaxRestarts)
	}
	if p.SegmentEvery < 0 {
		return fmt.Errorf("supervise: SegmentEvery must be non-negative, got %d", p.SegmentEvery)
	}
	if p.BackoffBase < 0 {
		return fmt.Errorf("supervise: BackoffBase must be non-negative, got %v", p.BackoffBase)
	}
	if p.BackoffCap < 0 {
		return fmt.Errorf("supervise: BackoffCap must be non-negative, got %v", p.BackoffCap)
	}
	return nil
}

// backoff returns the capped exponential delay before the given restart
// (1-based).
func (p Policy) backoff(restart int) time.Duration {
	base := p.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := p.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := base
	for i := 1; i < restart && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// Report describes what the supervisor did to finish (or give up on) a
// run.
type Report struct {
	// Restarts is the number of relaunches performed.
	Restarts int
	// Recovery is the wall time spent recovering: cleaning stale
	// checkpoint temporaries, reloading envelopes and backing off.
	Recovery time.Duration
	// Recovered lists the transient failures that were recovered from, in
	// order.
	Recovered []error
}

// Transient reports whether err is a failure the supervisor may recover
// from by relaunching: a rank death (mpi.ErrRankFailed), a blocking
// deadline (mpi.ErrDeadline), an exhausted send retry budget
// (mpi.ErrSendFailed) or any injected fault (faults.ErrInjected).
// Everything else — validation errors, checkpoint corruption, context
// cancellation — is fatal.
func Transient(err error) bool {
	return errors.Is(err, mpi.ErrRankFailed) ||
		errors.Is(err, mpi.ErrDeadline) ||
		errors.Is(err, mpi.ErrSendFailed) ||
		errors.Is(err, faults.ErrInjected)
}

// scratchCheckpoint creates an empty scratch path for a supervised run
// that did not configure its own checkpoint file, returning the path and
// a cleanup function.
func scratchCheckpoint() (string, func(), error) {
	f, err := os.CreateTemp("", "evogame-supervised-*.ckpt")
	if err != nil {
		return "", nil, fmt.Errorf("supervise: creating scratch checkpoint: %w", err)
	}
	path := f.Name()
	f.Close()
	// Remove the empty placeholder so a pre-first-segment failure sees "no
	// checkpoint yet" instead of a truncated envelope.
	os.Remove(path)
	cleanup := func() {
		os.Remove(path)
		checkpoint.RemoveStaleTemps(path)
	}
	return path, cleanup, nil
}

// RunParallel executes parallel.Run under supervision: the run is
// checkpointed every Policy.SegmentEvery generations, and when it fails
// transiently (see Transient) it is relaunched from the newest complete
// envelope — resumed bit-identically — up to Policy.MaxRestarts times
// with capped exponential backoff.  If the config names no
// CheckpointPath, a scratch file is used and removed afterwards.  The
// returned Result carries the supervisor's recovery counters in its
// Metrics (Restarts, RecoveryNanos).
func RunParallel(cfg parallel.Config, pol Policy) (parallel.Result, Report, error) {
	var rep Report
	if err := pol.validate(); err != nil {
		return parallel.Result{}, rep, err
	}
	run := cfg
	if run.CheckpointPath == "" {
		path, cleanup, err := scratchCheckpoint()
		if err != nil {
			return parallel.Result{}, rep, err
		}
		defer cleanup()
		run.CheckpointPath = path
		if run.CheckpointLabel == "" {
			run.CheckpointLabel = "supervised"
		}
	}
	if pol.SegmentEvery > 0 {
		run.CheckpointEvery = pol.SegmentEvery
	}
	// The absolute generation horizon: recovery always resumes toward it.
	total := cfg.Generations
	if cfg.Resume != nil {
		total += cfg.Resume.Generation
	}
	for {
		res, err := parallel.Run(run)
		if err == nil {
			res.Metrics.Restarts += rep.Restarts
			res.Metrics.RecoveryNanos += int64(rep.Recovery)
			return res, rep, nil
		}
		if !Transient(err) || rep.Restarts >= pol.MaxRestarts {
			return parallel.Result{}, rep, err
		}
		rep.Restarts++
		rep.Recovered = append(rep.Recovered, err)
		//lint:allow randsource wall-clock recovery-time accounting for Report.Recovery; never feeds simulation state
		began := time.Now()
		// An injected crash can strike between checkpoint.Save's temporary
		// write and its rename; drop any stranded partials before resuming.
		if _, rmErr := checkpoint.RemoveStaleTemps(run.CheckpointPath); rmErr != nil {
			return parallel.Result{}, rep, rmErr
		}
		if snap, loadErr := checkpoint.Load(run.CheckpointPath); loadErr == nil {
			run.Resume = &snap
			run.InitialStrategies = nil
			run.Generations = total - snap.Generation
		} else {
			// No complete segment yet: relaunch from the original config.
			run.Resume = cfg.Resume
			run.InitialStrategies = cfg.InitialStrategies
			run.Generations = cfg.Generations
		}
		time.Sleep(pol.backoff(rep.Restarts))
		rep.Recovery += time.Since(began)
	}
}

// RunSerial executes the serial engine under supervision, mirroring
// RunParallel for population.Model runs: segments are checkpointed every
// Policy.SegmentEvery generations, transient failures (injected crashes)
// are recovered by restoring the newest envelope, and the trajectory
// samples of all attempts are stitched into the exact sample sequence an
// uninterrupted run records.
func RunSerial(ctx context.Context, cfg population.Config, generations int, pol Policy) (population.Result, Report, error) {
	var rep Report
	if err := pol.validate(); err != nil {
		return population.Result{}, rep, err
	}
	if generations < 0 {
		return population.Result{}, rep, fmt.Errorf("supervise: negative generation count %d", generations)
	}
	run := cfg
	if run.CheckpointPath == "" {
		path, cleanup, err := scratchCheckpoint()
		if err != nil {
			return population.Result{}, rep, err
		}
		defer cleanup()
		run.CheckpointPath = path
		if run.CheckpointLabel == "" {
			run.CheckpointLabel = "supervised"
		}
	}
	if pol.SegmentEvery > 0 {
		run.CheckpointEvery = pol.SegmentEvery
	}
	model, err := population.New(run)
	if err != nil {
		return population.Result{}, rep, err
	}
	// Each model, abandoned or finished, releases its hold on a pair store
	// shared with other runs.
	defer func() { model.Release() }()
	// kept accumulates trajectory samples from failed attempts up to the
	// newest checkpoint; the portion past it is replayed after resume.
	var kept []population.AbundanceSample
	remaining := generations
	for {
		res, err := model.Run(ctx, remaining)
		if err == nil {
			res.Samples = append(kept, res.Samples...)
			res.Metrics.Restarts += rep.Restarts
			res.Metrics.RecoveryNanos += int64(rep.Recovery)
			return res, rep, nil
		}
		if !Transient(err) || rep.Restarts >= pol.MaxRestarts {
			return population.Result{}, rep, err
		}
		rep.Restarts++
		rep.Recovered = append(rep.Recovered, err)
		//lint:allow randsource wall-clock recovery-time accounting for Report.Recovery; never feeds simulation state
		began := time.Now()
		if _, rmErr := checkpoint.RemoveStaleTemps(run.CheckpointPath); rmErr != nil {
			return population.Result{}, rep, rmErr
		}
		if snap, loadErr := checkpoint.Load(run.CheckpointPath); loadErr == nil {
			restored, restErr := population.Restore(run, snap)
			if restErr != nil {
				return population.Result{}, rep, restErr
			}
			for _, s := range res.Samples {
				if s.Generation <= snap.Generation {
					kept = append(kept, s)
				}
			}
			model.Release()
			model = restored
			remaining = generations - snap.Generation
		} else {
			// No complete segment yet: restart from scratch.
			fresh, newErr := population.New(run)
			if newErr != nil {
				return population.Result{}, rep, newErr
			}
			kept = nil
			model.Release()
			model = fresh
			remaining = generations
		}
		time.Sleep(pol.backoff(rep.Restarts))
		rep.Recovery += time.Since(began)
	}
}
