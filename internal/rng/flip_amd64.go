//go:build amd64 && !purego

package rng

// flip8 draws len(a) flip pairs for eight lanes at once.  Lane l runs
// xoshiro256** from state st[·][l] exactly as FlipPairs does; where its
// draw is true and bit l of live is set, it sets bit base+l of the round's
// word in a (first draw) or b (second draw).  The advanced states are
// stored back in st, live lanes and padding alike.  len(b) must be at
// least len(a).
//
//go:noescape
func flip8(st *laneStates, t, live, base uint64, a, b []uint64)
