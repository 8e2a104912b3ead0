package bitvec

import (
	"testing"

	"evogame/internal/rng"
)

// TestMuxSelect checks the multiplexer tree against a scalar per-lane table
// lookup for every selector width the game kernel uses (memory 1..6 means
// 2..12 planes), and that the leaves survive the selection.
func TestMuxSelect(t *testing.T) {
	src := rng.New(42)
	for planesN := 1; planesN <= 12; planesN++ {
		leavesN := 1 << uint(planesN)
		leaves := make([]uint64, leavesN)
		orig := make([]uint64, leavesN)
		for i := range leaves {
			leaves[i] = src.Uint64()
		}
		copy(orig, leaves)
		planes := make([]uint64, planesN)
		for j := range planes {
			planes[j] = src.Uint64()
		}
		scratch := make([]uint64, leavesN/2)
		got := MuxSelect(scratch, leaves, planes)
		for i := range leaves {
			if leaves[i] != orig[i] {
				t.Fatalf("planes=%d: MuxSelect changed leaf %d", planesN, i)
			}
		}
		for lane := 0; lane < Lanes; lane++ {
			s := 0
			for j, p := range planes {
				s |= int(p>>uint(lane)&1) << uint(j)
			}
			want := orig[s] >> uint(lane) & 1
			if got>>uint(lane)&1 != want {
				t.Fatalf("planes=%d lane=%d: selected state %d, got bit %d want %d",
					planesN, lane, s, got>>uint(lane)&1, want)
			}
		}
	}
}

func TestVerticalCounter(t *testing.T) {
	const adds = 500
	width := CounterWidth(adds)
	planes := make([]uint64, width)
	want := [Lanes]int{}
	src := rng.New(7)
	for i := 0; i < adds; i++ {
		ones := src.Uint64()
		CounterAdd(planes, ones)
		for lane := 0; lane < Lanes; lane++ {
			want[lane] += int(ones >> uint(lane) & 1)
		}
	}
	for lane := 0; lane < Lanes; lane++ {
		if got := CounterLane(planes, lane); got != want[lane] {
			t.Fatalf("lane %d: counter %d want %d", lane, got, want[lane])
		}
	}
}

// TestCounterAddFixedWidth checks the fixed-width ripple at the narrowest
// counter and at the width the game kernel uses for a paper game (200
// rounds, game.DefaultRounds), counting
// each to its maximum with sparse and dense lane patterns so carries stop
// at every plane.
func TestCounterAddFixedWidth(t *testing.T) {
	src := rng.New(11)
	for _, width := range []int{1, CounterWidth(200)} {
		max := 1<<uint(width) - 1
		planes := make([]uint64, width)
		want := [Lanes]int{}
		for i := 0; i < 4*max+64; i++ {
			ones := src.Uint64() & src.Uint64() // about a quarter of the lanes
			if i%3 == 0 {
				ones = ^ones
			}
			for lane := 0; lane < Lanes; lane++ {
				if want[lane] == max {
					ones &^= 1 << uint(lane) // keep every lane within the width
				}
				want[lane] += int(ones >> uint(lane) & 1)
			}
			CounterAdd(planes, ones)
			for lane := 0; lane < Lanes; lane++ {
				if got := CounterLane(planes, lane); got != want[lane] {
					t.Fatalf("width %d, add %d, lane %d: counter %d want %d", width, i, lane, got, want[lane])
				}
			}
		}
		for lane := 0; lane < Lanes; lane++ {
			if want[lane] != max {
				t.Fatalf("width %d: lane %d reached %d, never the maximum %d", width, lane, want[lane], max)
			}
		}
	}
}

// TestCounterAddWords holds the carry-save reduction to one CounterAdd per
// word, on counters that already hold counts, for lengths around the
// 16-word block (none, ragged tails, several blocks, a 200-round game).
func TestCounterAddWords(t *testing.T) {
	src := rng.New(13)
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 100, 200} {
		const start = 5 // rounds already counted before the words
		width := CounterWidth(start + n)
		got, want := make([]uint64, width), make([]uint64, width)
		for i := 0; i < start; i++ {
			w := src.Uint64()
			CounterAdd(got, w)
			CounterAdd(want, w)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = src.Uint64() & src.Uint64()
			if i%5 == 0 {
				words[i] = ^uint64(0)
			}
			CounterAdd(want, words[i])
		}
		orig := append([]uint64(nil), words...)
		CounterAddWords(got, words)
		for lane := 0; lane < Lanes; lane++ {
			if g, w := CounterLane(got, lane), CounterLane(want, lane); g != w {
				t.Fatalf("%d words, lane %d: counter %d want %d", n, lane, g, w)
			}
		}
		for i := range words {
			if words[i] != orig[i] {
				t.Fatalf("%d words: CounterAddWords changed word %d", n, i)
			}
		}
	}
}

func TestCounterWidth(t *testing.T) {
	for _, tc := range []struct{ max, want int }{
		{-1, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {200, 8}, {255, 8}, {256, 9},
	} {
		if got := CounterWidth(tc.max); got != tc.want {
			t.Fatalf("CounterWidth(%d) = %d, want %d", tc.max, got, tc.want)
		}
	}
}
