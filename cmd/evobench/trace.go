package main

import (
	"sort"
	"time"

	"evogame/internal/stats"
)

// now is the benchmark's only wall-clock read.
func now() time.Time {
	//lint:allow randsource benchmark timing only; no clock value ever reaches a simulation input
	return time.Now()
}

// span is one timed interval of a traced run: a layer call the benchmark
// made, or a probe.  Times are nanoseconds since the child process's trace
// epoch; Parent is the enclosing span's ID, 0 for the root.
type span struct {
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; the parent writes them out
// when the benchmark exits.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: now()}
}

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Workload: t.workload,
		ID:       len(t.spans) + 1,
		Parent:   parent,
		Name:     name,
		StartNS:  int64(now().Sub(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	t.spans[id-1].EndNS = int64(now().Sub(t.epoch))
}

// durations returns the lengths in microseconds of the spans with the
// given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	return out
}

// quartiles returns the median and the first and third quartiles of xs,
// the quartiles computed like Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how spreads are judged.  A single value is
// its own quartiles.
func quartiles(xs []float64) (med, q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs), median(xs)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return median(xs), q(1), q(3)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return stats.Percentile(xs, 50)
}
