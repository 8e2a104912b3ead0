// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the evolutionary game dynamics framework.
//
// Reproducibility across ranks is essential for the parallel engine: the
// Nature Agent and every Strategy Set rank must be able to derive independent
// streams from a single experiment seed so that a run is bit-for-bit
// repeatable regardless of scheduling.  The generator is xoshiro256**, seeded
// through SplitMix64, which is the standard recipe recommended by the
// xoshiro authors and has no measurable correlation between streams split
// from distinct SplitMix64 outputs.
//
// The package intentionally does not use math/rand's global state: the
// framework needs many independent generators (one per rank, one per worker
// goroutine) with cheap construction and no locking.
//
// FlipLanes, the noisy batch kernel's flip pre-draw, holds the module's only
// assembly: on amd64 with AVX-512F, flip_amd64.s steps eight streams per
// pass.  Without AVX-512, under -tags purego and on any other GOARCH it runs
// the per-lane FlipPairs loop instead; both paths consume every stream
// identically, so results do not depend on the build.
package rng

import (
	"errors"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator.  It is NOT safe for
// concurrent use; each goroutine should own its own Source (use Split to
// derive child streams).
type Source struct {
	s [4]uint64
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro256** state words.
func splitmix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given 64-bit seed.  Two Sources built
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	s := &Source{}
	s.Reseed(seed)
	return s
}

// Reseed resets the generator to the state derived from seed.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	for i := range s.s {
		s.s[i] = splitmix64(&sm)
	}
	// A state of all zeros is the one invalid xoshiro state; SplitMix64 can
	// only produce it with negligible probability, but guard regardless.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9E3779B97F4A7C15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = bits.RotateLeft64(s.s[3], 45)
	return result
}

// Split derives a new, statistically independent Source from the current
// stream.  The parent stream is advanced.  Splitting is the supported way to
// hand independent generators to ranks and worker goroutines.
func (s *Source) Split() *Source {
	child := &Source{}
	s.SplitInto(child)
	return child
}

// SplitInto is Split without the allocation: it reseeds dst with the child
// stream Split would return, consuming the parent exactly as Split does.
// Callers that split once per game keep their children in a reusable
// []Source and split into its elements.
func (s *Source) SplitInto(dst *Source) {
	// Derive the child seed from two parent outputs mixed through SplitMix64
	// so that children of successive Split calls do not share obvious
	// structure with the parent's raw outputs.
	seed := s.Uint64() ^ bits.RotateLeft64(s.Uint64(), 32)
	dst.Reseed(seed)
}

// SplitN returns n independent child Sources (see Split).
func (s *Source) SplitN(n int) []*Source {
	children := make([]*Source, n)
	for i := range children {
		children[i] = s.Split()
	}
	return children
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits -> uniform double in [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// nearly-divisionless bounded generation.  It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p.  Values of p outside [0,1] are
// clamped.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// thresholdAlways is the BoolThreshold of every p >= 1: the draw is skipped
// and the outcome is always true.  Thresholds of p in (0, 1) are strictly
// below it.
const thresholdAlways = 1 << 53

// BoolThreshold returns the integer form of Bool(p)'s comparison.  Float64()
// is k/2⁵³ with k = Uint64()>>11, and p·2⁵³ is exact in float64 (a scaling
// by a power of two), so for p in (0, 1)
//
//	Float64() < p  ⇔  k < p·2⁵³  ⇔  k < ⌈p·2⁵³⌉,
//
// which is the returned t, in [1, 2⁵³−1].  Values of p <= 0 give 0 and
// values of p >= 1 give thresholdAlways; like Bool, BoolT draws nothing for
// either.  NaN is treated as 0.
func BoolThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return thresholdAlways
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BoolT returns Bool(p) for t = BoolThreshold(p), consuming the stream
// exactly as Bool(p) does, with one integer comparison instead of the float
// conversion.
func (s *Source) BoolT(t uint64) bool {
	if t == 0 || t >= thresholdAlways {
		return t != 0
	}
	return s.Uint64()>>11 < t
}

// FlipPairs draws len(a) rounds of two BoolT(t) draws each, in canonical
// order — a[r]'s draw, then b[r]'s — and sets bit lane of a[r] and b[r]
// for every true draw (bits that are already set stay set).  It consumes
// the stream exactly as 2·len(a) BoolT calls and leaves every other bit
// untouched, so a caller can fill one lane of a batch's per-round flip masks
// per source.  The generator state stays in registers for the whole loop.
// len(b) must be at least len(a).
func (s *Source) FlipPairs(t uint64, lane uint, a, b []uint64) {
	if t == 0 {
		return
	}
	b = b[:len(a)]
	bit := uint64(1) << (lane & 63)
	if t >= thresholdAlways {
		for r := range a {
			a[r] |= bit
			b[r] |= bit
		}
		return
	}
	s0, s1, s2, s3 := s.s[0], s.s[1], s.s[2], s.s[3]
	for r := range a {
		// Two xoshiro256** steps, verbatim from Uint64.  k < t exactly when
		// k − t wraps (both are below 2⁶³), so bit 63 of the difference is
		// the draw's outcome.
		x := bits.RotateLeft64(s1*5, 7) * 9
		u := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		a[r] |= bit & -((x>>11 - t) >> 63)

		x = bits.RotateLeft64(s1*5, 7) * 9
		u = s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= u
		s3 = bits.RotateLeft64(s3, 45)
		b[r] |= bit & -((x>>11 - t) >> 63)
	}
	s.s = [4]uint64{s0, s1, s2, s3}
}

// Coin returns true with probability 1/2.
//
//lint:allow deadapi fitness.TestIncrementalMatrixUpdateStaysExact and the well-mixed matrix oracle draw their update sequences with it
func (s *Source) Coin() bool {
	return s.Uint64()&1 == 1
}

// Perm returns a uniformly random permutation of [0, n) using Fisher-Yates.
//
//lint:allow deadapi checkpoint.TestSaveIsDurableAndCollisionFree shuffles its save order with it
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function (Fisher-Yates).  It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with negative n")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Pair returns two distinct indices drawn uniformly from [0, n).  It returns
// an error if n < 2 since no distinct pair exists.
func (s *Source) Pair(n int) (int, int, error) {
	if n < 2 {
		return 0, 0, errors.New("rng: Pair requires n >= 2")
	}
	a := s.Intn(n)
	b := s.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b, nil
}

// FillUint64 fills dst with uniformly distributed 64-bit values.
func (s *Source) FillUint64(dst []uint64) {
	for i := range dst {
		dst[i] = s.Uint64()
	}
}

// State returns a copy of the internal state, for checkpointing.
func (s *Source) State() [4]uint64 {
	return s.s
}

// SetState restores a state previously obtained from State.  It returns an
// error if the state is all zeros (invalid for xoshiro256**).
func (s *Source) SetState(state [4]uint64) error {
	if state[0]|state[1]|state[2]|state[3] == 0 {
		return errors.New("rng: all-zero state is invalid")
	}
	s.s = state
	return nil
}
