package rng

import (
	"fmt"
	"testing"
)

// flip8Usable records whether this build and CPU can run FlipLanes' group
// path, before any test clears useFlip8.
var flip8Usable = useFlip8

// flipPaths runs f once with the plain FlipPairs loop and once with the
// flip8 group path where it can run, restoring useFlip8 afterwards.
func flipPaths(t testing.TB, f func(path string)) {
	defer func(v bool) { useFlip8 = v }(useFlip8)
	useFlip8 = false
	f("loop")
	if flip8Usable {
		useFlip8 = true
		f("flip8")
	}
}

// laneSources builds n lane sources from seed.  Where bit l of alias is
// set, lane l > 0 reuses an earlier lane's source; clones of the pool are
// returned alongside, aliased the same way.
func laneSources(seed, alias uint64, n int) (srcs, clones []*Source) {
	pick := New(seed ^ 0x5eed)
	srcs = make([]*Source, n)
	clones = make([]*Source, n)
	for l := range srcs {
		if l > 0 && alias>>uint(l)&1 == 1 {
			j := pick.Intn(l)
			srcs[l], clones[l] = srcs[j], clones[j]
			continue
		}
		srcs[l] = New(seed + uint64(l))
		clones[l] = New(seed + uint64(l))
	}
	return srcs, clones
}

// checkFlipLanes holds FlipLanes to the per-lane FlipPairs loop: the same
// flip words, pre-set bits kept, and every source left at the same state.
func checkFlipLanes(t testing.TB, seed, alias, preset, th uint64, n, rounds int) {
	flipPaths(t, func(path string) {
		srcs, ref := laneSources(seed, alias, n)
		a, b := make([]uint64, rounds), make([]uint64, rounds+1)
		wantA, wantB := make([]uint64, rounds), make([]uint64, rounds+1)
		for r := range a {
			a[r], b[r] = preset, ^preset
			wantA[r], wantB[r] = preset, ^preset
		}
		b[rounds], wantB[rounds] = preset, preset
		for l, s := range ref {
			s.FlipPairs(th, uint(l), wantA, wantB)
		}
		FlipLanes(srcs, th, a, b)
		for r := range a {
			if a[r] != wantA[r] || b[r] != wantB[r] {
				t.Fatalf("%s: %d lanes, t=%d, round %d: words %#x/%#x, FlipPairs loop %#x/%#x",
					path, n, th, r, a[r], b[r], wantA[r], wantB[r])
			}
		}
		if b[rounds] != wantB[rounds] {
			t.Fatalf("%s: %d lanes: word past len(a) changed to %#x", path, n, b[rounds])
		}
		for l := range srcs {
			if srcs[l].State() != ref[l].State() {
				t.Fatalf("%s: %d lanes, t=%d, alias %#x: lane %d source left at %#x, FlipPairs loop at %#x",
					path, n, th, alias, l, srcs[l].State(), ref[l].State())
			}
		}
	})
}

// TestFlipLanesMatchesFlipPairs covers full and padded groups, the
// threshold edges and a source shared by lanes inside and across groups.
func TestFlipLanesMatchesFlipPairs(t *testing.T) {
	thresholds := []uint64{0, 1, BoolThreshold(0.05), BoolThreshold(0.5), thresholdAlways - 1, thresholdAlways}
	for _, n := range []int{1, 7, 8, 9, 18, 63, 64} {
		for _, th := range thresholds {
			for _, alias := range []uint64{0, 1 << 3, 1 << 9, ^uint64(0)} {
				t.Run(fmt.Sprintf("lanes%d/t%d/alias%x", n, th, alias), func(t *testing.T) {
					for _, rounds := range []int{0, 1, 200} {
						checkFlipLanes(t, uint64(n)*1000+uint64(rounds), alias, 1<<63|1<<2, th, n, rounds)
					}
				})
			}
		}
	}
}

// FuzzFlipLanes compares FlipLanes on both paths against the per-lane
// FlipPairs loop over thresholds, lane counts, round counts, pre-set bits
// and aliased sources.
func FuzzFlipLanes(f *testing.F) {
	f.Add(uint64(2013), uint64(3), uint64(0), uint64(0), uint8(17), uint16(200))
	f.Add(uint64(1), uint64(0), uint64(0), uint64(0), uint8(63), uint16(512))
	f.Add(uint64(7), uint64(1), uint64(^uint64(0)), uint64(0), uint8(8), uint16(3))
	f.Add(uint64(9), uint64(2), uint64(0xf0f0), uint64(0x6), uint8(9), uint16(1))
	f.Add(uint64(5), uint64(0x5555), uint64(1<<40), ^uint64(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, seed, tSel, preset, alias uint64, lanes uint8, rounds uint16) {
		var th uint64
		switch tSel % 4 {
		case 0:
			th = 0
		case 1:
			th = 1
		case 2:
			th = thresholdAlways - 1
		default:
			th = BoolThreshold(float64(tSel>>11) / (1 << 53))
		}
		checkFlipLanes(t, seed, alias, preset, th, 1+int(lanes)%64, int(rounds)%513)
	})
}

// BenchmarkFlipLanes times one batch's flip pre-draw for a 200-round noisy
// game at the paper's noise level, at full occupancy and at Figure 2's
// (about 18 lanes), on each path.
func BenchmarkFlipLanes(b *testing.B) {
	th := BoolThreshold(0.05)
	for _, n := range []int{64, 18} {
		flipPaths(b, func(path string) {
			b.Run(fmt.Sprintf("lanes%d/%s", n, path), func(b *testing.B) {
				srcs, _ := laneSources(1, 0, n)
				a, c := make([]uint64, 200), make([]uint64, 200)
				for i := 0; i < b.N; i++ {
					FlipLanes(srcs, th, a, c)
				}
			})
		})
	}
}
