//go:build race

package parallel

// raceEnabled reports whether the race detector is on.  Under -race,
// sync.Pool deliberately drops a share of Put calls, so the game kernels'
// pooled buffers are reallocated and a generation that plays games cannot
// hold its steady-state byte gate there.
const raceEnabled = true
