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
// counters: recording takes no lock and allocates nothing, and Add and
// Total are safe for concurrent use.  Lap keeps the one mark of the
// goroutine that drives the recorder's phase boundaries.
type Recorder struct {
	totals [numPhases]atomic.Int64 // nanoseconds

	origin time.Time     // carries the monotonic reading Lap measures from
	mark   time.Duration // offset from origin of the last Lap
}

// NewRecorder returns an empty Recorder whose first Lap measures from now.
func NewRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// Add records d spent in phase p; a negative d counts as zero.
func (r *Recorder) Add(p Phase, d time.Duration) {
	r.totals[p].Add(int64(max(d, 0)))
}

// Lap charges the time since the previous Lap (or since NewRecorder) to
// phase p: a loop calls it at each phase boundary, naming the phase that
// just ended, so every interval is charged once for one monotonic clock
// read.  Only one goroutine may call Lap.
func (r *Recorder) Lap(p Phase) {
	now := time.Since(r.origin)
	r.Add(p, now-r.mark)
	r.mark = now
}

// Total returns the accumulated duration of phase p.
func (r *Recorder) Total(p Phase) time.Duration {
	return time.Duration(r.totals[p].Load())
}
