package rng

import "evogame/internal/cpuid"

// useFlip8 reports whether FlipLanes draws through the AVX-512 kernel.  It
// is set once, at package init, from cpuid.AVX512, which is always false
// where the kernel is not built (the purego tag, every GOARCH but amd64);
// tests clear it to run the plain FlipPairs loop.
var useFlip8 = cpuid.AVX512()

// FlipLanes fills lane l of the batch flip words a and b from srcs[l],
// exactly as calling srcs[l].FlipPairs(t, uint(l), a, b) for l = 0, 1, …
// in order would: every stream is consumed identically and every other bit
// is left untouched.  It takes at most 64 sources, one per bit lane, and
// len(b) must be at least len(a).
//
// On amd64 with AVX-512F, lanes are drawn in groups of eight through
// flip8, one vector pass per round for all eight; every other build runs
// the per-lane loop.  A group that holds the same *Source twice is drawn
// lane by lane instead, so aliased sources see the scalar order too;
// groups run in lane order, so sources shared across groups need nothing
// special.
func FlipLanes(srcs []*Source, t uint64, a, b []uint64) {
	if len(srcs) > 64 {
		panic("rng: FlipLanes takes at most 64 sources")
	}
	b = b[:len(a)]
	if !useFlip8 || t == 0 || t >= thresholdAlways || len(a) == 0 {
		for l, s := range srcs {
			s.FlipPairs(t, uint(l), a, b)
		}
		return
	}
	var st laneStates
	for base := 0; base < len(srcs); base += 8 {
		g := srcs[base:min(base+8, len(srcs))]
		if aliased(g) {
			for l, s := range g {
				s.FlipPairs(t, uint(base+l), a, b)
			}
			continue
		}
		// A short tail group pads its unused lanes with lane 0's state; the
		// live mask keeps their draws out of the words, and only the live
		// lanes' states are written back.
		for l := range st[0] {
			s := g[0]
			if l < len(g) {
				s = g[l]
			}
			st[0][l], st[1][l], st[2][l], st[3][l] = s.s[0], s.s[1], s.s[2], s.s[3]
		}
		flip8(&st, t, uint64(1)<<len(g)-1, uint64(base), a, b)
		for l, s := range g {
			s.s = [4]uint64{st[0][l], st[1][l], st[2][l], st[3][l]}
		}
	}
}

// laneStates holds eight xoshiro256** states in structure-of-arrays form:
// st[w][l] is state word w of lane l.
type laneStates [4][8]uint64

// aliased reports whether g holds the same source twice.
func aliased(g []*Source) bool {
	for i, s := range g {
		for _, u := range g[:i] {
			if s == u {
				return true
			}
		}
	}
	return false
}
