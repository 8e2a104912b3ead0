//go:build amd64 && !purego

package rng

// useFlip8 reports whether FlipLanes draws through the AVX-512 kernel.  It
// is set once, at package init, from CPUID and XGETBV; tests clear it to
// run the plain FlipPairs loop.
var useFlip8 = hasAVX512()

// hasAVX512 reports whether the CPU has AVX512F (CPUID leaf 7, EBX bit 16)
// and the OS saves the opmask and zmm state (OSXSAVE, then XCR0 bits 1, 2
// and 5–7).
func hasAVX512() bool

// flip8 draws len(a) flip pairs for eight lanes at once.  Lane l runs
// xoshiro256** from state st[·][l] exactly as FlipPairs does; where its
// draw is true and bit l of live is set, it sets bit base+l of the round's
// word in a (first draw) or b (second draw).  The advanced states are
// stored back in st, live lanes and padding alike.  len(b) must be at
// least len(a).
//
//go:noescape
func flip8(st *laneStates, t, live, base uint64, a, b []uint64)
