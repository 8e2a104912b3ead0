package strategy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"evogame/internal/game"
)

// The codec packs strategies into self-describing byte slices so that the
// Nature Agent can broadcast strategy-table updates over the message-passing
// substrate and so that checkpoints can persist a population.  The format is
// deliberately simple and versioned:
//
//	byte 0      format version (currently 1)
//	byte 1      kind (1 = pure; every other kind is rejected)
//	byte 2      memory steps
//	bytes 3..   payload: ceil(numStates/64) little-endian uint64 words
//
// Older encodings used kind 2 for mixed strategies (per-state cooperation
// probabilities); checkpoints may still hold one, and Decode rejects it as
// corrupt like any other unknown kind.

const (
	codecVersion = 1
	kindPure     = 1
)

// ErrCorrupt is returned by Decode when the byte slice is not a valid
// strategy encoding.
var ErrCorrupt = errors.New("strategy: corrupt encoding")

// Encode serialises a strategy.  It returns an error for strategy
// implementations outside this package.
func Encode(s Strategy) ([]byte, error) { return AppendEncode(nil, s) }

// AppendEncode appends the encoding of s to dst and returns the extended
// slice, growing dst at most once.  On error it returns dst unchanged.
func AppendEncode(dst []byte, s Strategy) ([]byte, error) {
	p, ok := s.(*Pure)
	if !ok {
		return dst, fmt.Errorf("strategy: cannot encode %T", s)
	}
	dst = slices.Grow(dst, 3+8*len(p.bits))
	dst = append(dst, codecVersion, kindPure, byte(p.mem))
	for _, w := range p.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst, nil
}

// EncodingHash returns a 64-bit hash of the words Encode writes for s: the
// kind and memory depth, then the move words.  It allocates nothing.
// Strategies that encode alike hash alike; the converse needs
// SameEncoding.
func EncodingHash(s Strategy) (uint64, error) {
	p, ok := s.(*Pure)
	if !ok {
		return 0, fmt.Errorf("strategy: cannot encode %T", s)
	}
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(w uint64) {
		h = (h ^ w) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	mix(kindPure<<8 | uint64(p.mem))
	for _, w := range p.bits {
		mix(w)
	}
	return h, nil
}

// SameEncoding reports whether Encode writes identical bytes for a and b:
// both pure, of the same memory depth and with identical move words.
func SameEncoding(a, b Strategy) bool {
	x, ok := a.(*Pure)
	if !ok {
		return false
	}
	y, ok := b.(*Pure)
	return ok && x.mem == y.mem && slices.Equal(x.bits, y.bits)
}

// header checks an encoding's version byte and memory depth and returns
// its kind, depth and payload.
func header(buf []byte) (kind byte, mem int, payload []byte, err error) {
	if len(buf) < 3 {
		return 0, 0, nil, fmt.Errorf("%w: too short (%d bytes)", ErrCorrupt, len(buf))
	}
	if buf[0] != codecVersion {
		return 0, 0, nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, buf[0])
	}
	mem = int(buf[2])
	if mem < 1 || mem > 6 {
		return 0, 0, nil, fmt.Errorf("%w: memory steps %d out of range", ErrCorrupt, mem)
	}
	return buf[1], mem, buf[3:], nil
}

// Decode reverses Encode.
func Decode(buf []byte) (*Pure, error) {
	kind, mem, _, err := header(buf)
	if err != nil {
		return nil, err
	}
	if kind != kindPure {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
	p := NewPure(mem)
	if err := DecodeInto(p, buf); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeInto decodes the encoding of a pure strategy of p's memory depth
// into p, overwriting its moves, so a receiver can decode into one scratch
// strategy instead of allocating a new one.  It rejects an encoding of
// another kind or depth with ErrCorrupt, and leaves p unchanged on error.
func DecodeInto(p *Pure, buf []byte) error {
	kind, mem, payload, err := header(buf)
	if err != nil {
		return err
	}
	if kind != kindPure {
		return fmt.Errorf("%w: kind %d, want a pure strategy", ErrCorrupt, kind)
	}
	if mem != p.mem {
		return fmt.Errorf("%w: memory-%d strategy, want memory-%d", ErrCorrupt, mem, p.mem)
	}
	if want := len(p.bits) * 8; len(payload) != want {
		return fmt.Errorf("%w: pure payload %d bytes, want %d", ErrCorrupt, len(payload), want)
	}
	// Canonicalise: reject encodings that set bits beyond the state count,
	// which would make Equal unreliable.
	if rem := p.n % 64; rem != 0 && binary.LittleEndian.Uint64(payload[len(payload)-8:])>>rem != 0 {
		return fmt.Errorf("%w: pure payload sets bits beyond the state count", ErrCorrupt)
	}
	for i := range p.bits {
		p.bits[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	return nil
}

// EncodedSize returns the number of bytes Encode produces for a pure
// strategy of the given memory depth, without materialising one; the
// performance model sizes its broadcast messages with it.
func EncodedSize(memSteps int) int {
	return 3 + 8*((game.NumStates(memSteps)+63)/64)
}
