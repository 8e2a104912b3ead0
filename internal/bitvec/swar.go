// Package bitvec holds the SWAR ("SIMD within a register") primitives of
// the bit-sliced batch game kernel (internal/game).  The kernel plays up to
// 64 independent games at once by assigning each game one bit position — a
// "lane" — of a uint64 word, so a per-game boolean across the whole batch is
// a single word and a per-game small integer is a short array of words (a
// "vertical" counter: word i holds bit i of every lane's value).  These
// helpers are the word arithmetic the kernel's inner loop is made of; they
// know nothing about games and operate on raw []uint64.
package bitvec

import "math/bits"

// Lanes is the number of independent lanes a single word carries.
const Lanes = 64

// MuxSelect collapses the 2^len(planes) leaf words down to one word through
// a multiplexer tree: lane L of the result is leaves[s_L][L], where s_L is
// the integer whose bit j is lane L of planes[j].  In the batch kernel the
// leaves are a transposed move table and the planes are the bit-sliced game
// states, so one call computes every lane's next move with no per-lane
// branching.
//
// The first level reads leaves and writes its pairwise selections into
// scratch; later levels combine in place in scratch, ascending-bit first.
// leaves is left intact, so a table can be selected from every round
// without a copy.  len(leaves) must be exactly 1<<len(planes), with at least
// one plane, and scratch must hold at least len(leaves)/2 words.
func MuxSelect(scratch, leaves, planes []uint64) uint64 {
	size := len(leaves) >> 1
	sel := planes[0]
	for i := 0; i < size; i++ {
		scratch[i] = (leaves[2*i] &^ sel) | (leaves[2*i+1] & sel)
	}
	for _, sel := range planes[1:] {
		size >>= 1
		for i := 0; i < size; i++ {
			scratch[i] = (scratch[2*i] &^ sel) | (scratch[2*i+1] & sel)
		}
	}
	return scratch[0]
}

// CounterAdd adds the per-lane 0/1 word ones into the vertical counter
// planes with ripple carry: lane L of the counter gains ones' bit L.  Each
// lane's count occupies the same bit position of every plane, so carries
// never cross lanes.  The carry ripples through every plane, with no early
// exit once it dies out, so the cost is fixed by the width and never
// branches on the data.  A carry out of the last plane is dropped; callers
// size the counter with CounterWidth so that cannot happen.
func CounterAdd(planes []uint64, ones uint64) {
	for i, p := range planes {
		planes[i] = p ^ ones
		ones &= p
	}
}

// CounterAddWords adds every word of words into the vertical counter planes,
// exactly as one CounterAdd per word would.  Sixteen words at a time are
// first reduced through a carry-save adder tree (Harley–Seal) whose partial
// sums stay in registers, so only one word in sixteen ripples through the
// planes.  Like CounterAdd it never branches on the data.  planes must be
// wide enough for the final counts (see CounterWidth).
func CounterAddWords(planes, words []uint64) {
	var ones, twos, fours, eights uint64
	blocks := len(words) &^ 15
	for i := 0; i < blocks; i += 16 {
		w := words[i : i+16 : i+16]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, sixteens uint64
		twosA, ones = csa(ones, w[0], w[1])
		twosB, ones = csa(ones, w[2], w[3])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, w[4], w[5])
		twosB, ones = csa(ones, w[6], w[7])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, w[8], w[9])
		twosB, ones = csa(ones, w[10], w[11])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, w[12], w[13])
		twosB, ones = csa(ones, w[14], w[15])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		sixteens, eights = csa(eights, eightsA, eightsB)
		CounterAdd(planes[4:], sixteens)
	}
	if blocks > 0 {
		// A full block means the counts reach 16, so planes has at least
		// five words.
		CounterAdd(planes[3:], eights)
		CounterAdd(planes[2:], fours)
		CounterAdd(planes[1:], twos)
		CounterAdd(planes, ones)
	}
	for _, w := range words[blocks:] {
		CounterAdd(planes, w)
	}
}

// csa is a carry-save adder over 64 lanes: per lane, a+b+c = 2*carry + sum.
func csa(a, b, c uint64) (carry, sum uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// CounterLane extracts lane L's count from a vertical counter.
func CounterLane(planes []uint64, lane int) int {
	c := 0
	for i, w := range planes {
		c |= int((w>>uint(lane))&1) << uint(i)
	}
	return c
}

// CounterWidth returns the number of planes a vertical counter needs to
// hold counts up to and including max.
func CounterWidth(max int) int {
	if max < 0 {
		return 0
	}
	return bits.Len(uint(max))
}
