// Package trace records how a rank's wall-clock time is split between
// game-play computation and communication, so the scaling studies can
// report the compute/communication breakdown of the paper's Figure 5 and
// diagnose the efficiency cliffs of Figure 4 and Table VI.
package trace

import (
	"sync/atomic"
	"time"
)

// Phase identifies what a rank is spending time on.
type Phase int

// The phases used by the parallel engine.
const (
	PhaseCompute Phase = iota
	PhaseComm
	numPhases
)

// Recorder accumulates per-phase durations in a fixed array of atomic
// counters: recording takes no lock and allocates nothing, and a Recorder
// is safe for concurrent use.
type Recorder struct {
	totals [numPhases]atomic.Int64 // nanoseconds
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Add records d spent in phase p; a negative d counts as zero.
func (r *Recorder) Add(p Phase, d time.Duration) {
	r.totals[p].Add(int64(max(d, 0)))
}

// TimeErr runs fn and records its duration under phase p, returning fn's
// error.
func (r *Recorder) TimeErr(p Phase, fn func() error) error {
	start := time.Now()
	err := fn()
	r.Add(p, time.Since(start))
	return err
}

// Total returns the accumulated duration of phase p.
func (r *Recorder) Total(p Phase) time.Duration {
	return time.Duration(r.totals[p].Load())
}
