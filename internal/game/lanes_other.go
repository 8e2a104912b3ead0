//go:build !amd64 || purego

package game

// walk16 is never called without the assembly kernel.
func walk16(base *uint64, st *laneState, groups, rounds int, mask uint32, rec *uint16) {
	panic("game: walk16 without the assembly kernel")
}

// revisits16 is never called without the assembly kernel.
func revisits16(rec *uint16, groups, rounds int, first *[BatchLanes]uint32) {
	panic("game: revisits16 without the assembly kernel")
}
