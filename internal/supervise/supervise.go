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
	"bytes"
	"context"
	"crypto/sha256"
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
	// config's own CheckpointEvery (recovery then relaunches the config as
	// given if the run never checkpoints).
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

// segments is a supervised run's segment file and the SHA-256 of the file
// that sat at its path before the run began (zero when there was none).
type segments struct {
	path  string
	stale [sha256.Size]byte
}

// newest returns the newest complete segment the run has written, or nil
// when it has written none.  A file that sat at the path before the run
// began is an earlier run's checkpoint, never a segment: resuming it would
// continue that run under this run's parameters.  (Should a segment's
// bytes equal that file's, rejecting it only relaunches from further
// back.)
func (s segments) newest() *checkpoint.Snapshot {
	b, err := os.ReadFile(s.path)
	if err != nil || sha256.Sum256(b) == s.stale {
		return nil
	}
	snap, err := checkpoint.Read(bytes.NewReader(b))
	if err != nil {
		return nil
	}
	return &snap
}

// segment points a supervised run's checkpoint fields at the file its
// segments go to: the run's own CheckpointPath, or else a scratch file
// (labelled "supervised") that the returned cleanup removes; a positive
// SegmentEvery replaces the run's cadence.
func (p Policy) segment(path, label *string, every *int) (segments, func(), error) {
	cleanup := func() {}
	if *path == "" {
		f, err := os.CreateTemp("", "evogame-supervised-*.ckpt")
		if err != nil {
			return segments{}, nil, fmt.Errorf("supervise: creating scratch checkpoint: %w", err)
		}
		scratch := f.Name()
		f.Close()
		// Remove the empty placeholder so a pre-first-segment failure sees
		// "no checkpoint yet" instead of a truncated envelope.
		os.Remove(scratch)
		cleanup = func() {
			os.Remove(scratch)
			checkpoint.RemoveStaleTemps(scratch)
		}
		*path = scratch
		if *label == "" {
			*label = "supervised"
		}
	}
	if p.SegmentEvery > 0 {
		*every = p.SegmentEvery
	}
	segs := segments{path: *path}
	if b, err := os.ReadFile(*path); err == nil {
		segs.stale = sha256.Sum256(b)
	}
	return segs, cleanup, nil
}

// retry is the recovery loop both engines share.  It runs attempt until
// it succeeds, fails fatally (see Transient) or has been relaunched
// MaxRestarts times, backing off between launches.  The first attempt gets
// nil; each relaunch gets the newest complete segment the run has written,
// or nil when it has written none — either way the attempt continues the
// run from there.
func retry[R any](pol Policy, segs segments, rep *Report, attempt func(seg *checkpoint.Snapshot) (R, error)) (R, error) {
	var seg *checkpoint.Snapshot
	for {
		res, err := attempt(seg)
		if err == nil || !Transient(err) || rep.Restarts >= pol.MaxRestarts {
			return res, err
		}
		rep.Restarts++
		rep.Recovered = append(rep.Recovered, err)
		//lint:allow randsource wall-clock recovery-time accounting for Report.Recovery; never feeds simulation state
		began := time.Now()
		// An injected crash can strike between checkpoint.Save's temporary
		// write and its rename; drop any stranded partials before resuming.
		if _, rmErr := checkpoint.RemoveStaleTemps(segs.path); rmErr != nil {
			var zero R
			return zero, rmErr
		}
		seg = segs.newest()
		time.Sleep(pol.backoff(rep.Restarts))
		rep.Recovery += time.Since(began)
	}
}

// resumeGeneration is the generation a run resuming from snap starts at.
func resumeGeneration(snap *checkpoint.Snapshot) int {
	if snap == nil {
		return 0
	}
	return snap.Generation
}

// RunParallel executes parallel.Run under supervision: the run is
// checkpointed every Policy.SegmentEvery generations, and when it fails
// transiently (see Transient) it is relaunched from the newest complete
// segment through Config.Resume — resumed bit-identically — up to
// Policy.MaxRestarts times with capped exponential backoff.  The config
// may itself resume a checkpoint.  If it names no CheckpointPath, a
// scratch file is used and removed afterwards.  The returned Result
// carries the supervisor's recovery counters in its Metrics (Restarts,
// RecoveryNanos).
func RunParallel(cfg parallel.Config, pol Policy) (parallel.Result, Report, error) {
	var rep Report
	if err := pol.validate(); err != nil {
		return parallel.Result{}, rep, err
	}
	run := cfg
	segs, cleanup, err := pol.segment(&run.CheckpointPath, &run.CheckpointLabel, &run.CheckpointEvery)
	if err != nil {
		return parallel.Result{}, rep, err
	}
	defer cleanup()
	// The absolute generation horizon: recovery always resumes toward it.
	total := resumeGeneration(cfg.Resume) + cfg.Generations
	res, err := retry(pol, segs, &rep, func(seg *checkpoint.Snapshot) (parallel.Result, error) {
		attempt := run
		if seg != nil {
			attempt.Resume, attempt.InitialStrategies, attempt.Generations = seg, nil, total-seg.Generation
		}
		return parallel.Run(attempt)
	})
	if err != nil {
		return parallel.Result{}, rep, err
	}
	res.Metrics.Restarts += rep.Restarts
	res.Metrics.RecoveryNanos += int64(rep.Recovery)
	return res, rep, nil
}

// RunSerial executes the serial engine under supervision, mirroring
// RunParallel for population.Model runs of generations generations
// (counted from cfg.Resume's generation when the config resumes a
// checkpoint): segments are checkpointed every Policy.SegmentEvery
// generations, transient failures (injected crashes) are recovered by
// relaunching from the newest segment through Config.Resume, and the
// trajectory samples of all attempts are stitched into the exact sample
// sequence an uninterrupted run records.
func RunSerial(ctx context.Context, cfg population.Config, generations int, pol Policy) (population.Result, Report, error) {
	var rep Report
	if err := pol.validate(); err != nil {
		return population.Result{}, rep, err
	}
	if generations < 0 {
		return population.Result{}, rep, fmt.Errorf("supervise: negative generation count %d", generations)
	}
	run := cfg
	segs, cleanup, err := pol.segment(&run.CheckpointPath, &run.CheckpointLabel, &run.CheckpointEvery)
	if err != nil {
		return population.Result{}, rep, err
	}
	defer cleanup()
	total := resumeGeneration(cfg.Resume) + generations
	// samples accumulates the trajectory across attempts; each attempt
	// first drops what lies past its resume point, which it replays.
	var samples []population.AbundanceSample
	res, err := retry(pol, segs, &rep, func(seg *checkpoint.Snapshot) (population.Result, error) {
		attempt := run
		if seg != nil {
			attempt.Resume, attempt.InitialStrategies = seg, nil
		}
		model, err := population.New(attempt)
		if err != nil {
			return population.Result{}, err
		}
		// Each model, abandoned or finished, releases its hold on a pair
		// store shared with other runs.
		defer model.Release()
		kept := 0
		for kept < len(samples) && samples[kept].Generation <= model.Generation() {
			kept++
		}
		res, err := model.Run(ctx, total-model.Generation())
		samples = append(samples[:kept], res.Samples...)
		res.Samples = samples
		return res, err
	})
	if err != nil {
		return population.Result{}, rep, err
	}
	res.Metrics.Restarts += rep.Restarts
	res.Metrics.RecoveryNanos += int64(rep.Recovery)
	return res, rep, nil
}
