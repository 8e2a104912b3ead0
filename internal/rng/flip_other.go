//go:build !amd64 || purego

package rng

// useFlip8 is always clear without the assembly kernel, so FlipLanes runs
// the per-lane FlipPairs loop.
var useFlip8 = false

// flip8 is never called without the assembly kernel.
func flip8(st *laneStates, t, live, base uint64, a, b []uint64) {
	panic("rng: flip8 without the assembly kernel")
}
