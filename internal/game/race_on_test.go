//go:build race

package game

// raceEnabled reports whether the race detector is on.  Under -race,
// sync.Pool deliberately drops a share of Put calls, so the pooled kernels'
// steady-state allocation gates cannot hold there.
const raceEnabled = true
