//go:build !amd64 || purego

package rng

// flip8 is never called without the assembly kernel.
func flip8(st *laneStates, t, live, base uint64, a, b []uint64) {
	panic("rng: flip8 without the assembly kernel")
}
