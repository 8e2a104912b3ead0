package strategy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The codec packs strategies into self-describing byte slices so that the
// Nature Agent can broadcast strategy-table updates over the message-passing
// substrate and so that checkpoints can persist a population.  The format is
// deliberately simple and versioned:
//
//	byte 0      format version (currently 1)
//	byte 1      kind (1 = pure, 2 = mixed)
//	byte 2      memory steps
//	bytes 3..   payload
//
// Pure payload:  ceil(numStates/64) little-endian uint64 words.
// Mixed payload: numStates little-endian float64 values.

const (
	codecVersion = 1
	kindPure     = 1
	kindMixed    = 2
)

// ErrCorrupt is returned by Decode when the byte slice is not a valid
// strategy encoding.
var ErrCorrupt = errors.New("strategy: corrupt encoding")

// Encode serialises a strategy.  It returns an error for strategy
// implementations outside this package.
func Encode(s Strategy) ([]byte, error) {
	switch v := s.(type) {
	case *Pure:
		words := v.Words()
		buf := make([]byte, 3+8*len(words))
		buf[0] = codecVersion
		buf[1] = kindPure
		buf[2] = byte(v.MemorySteps())
		for i, w := range words {
			binary.LittleEndian.PutUint64(buf[3+8*i:], w)
		}
		return buf, nil
	case *Mixed:
		buf := make([]byte, 3+8*len(v.probs))
		buf[0] = codecVersion
		buf[1] = kindMixed
		buf[2] = byte(v.MemorySteps())
		for i, p := range v.probs {
			binary.LittleEndian.PutUint64(buf[3+8*i:], math.Float64bits(p))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("strategy: cannot encode %T", s)
	}
}

// EncodingHash returns a 64-bit hash of the words Encode writes for s:
// the kind and memory depth, then the move words of a pure strategy or the
// Float64bits of a mixed strategy's probabilities.  It allocates nothing.
// Strategies that encode alike hash alike; the converse needs
// SameEncoding.
func EncodingHash(s Strategy) (uint64, error) {
	h := uint64(0x9E3779B97F4A7C15)
	mix := func(w uint64) {
		h = (h ^ w) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	switch v := s.(type) {
	case *Pure:
		mix(kindPure<<8 | uint64(v.mem))
		for _, w := range v.bits {
			mix(w)
		}
	case *Mixed:
		mix(kindMixed<<8 | uint64(v.mem))
		for _, p := range v.probs {
			mix(math.Float64bits(p))
		}
	default:
		return 0, fmt.Errorf("strategy: cannot encode %T", s)
	}
	return h, nil
}

// SameEncoding reports whether Encode writes identical bytes for a and b:
// the same kind and memory depth, and bit-identical move words or
// probabilities.  Unlike Mixed.Equal it tells +0 from -0 and compares NaN
// payloads bit for bit.
func SameEncoding(a, b Strategy) bool {
	switch x := a.(type) {
	case *Pure:
		y, ok := b.(*Pure)
		return ok && x.mem == y.mem && slices.Equal(x.bits, y.bits)
	case *Mixed:
		y, ok := b.(*Mixed)
		if !ok || x.mem != y.mem || len(x.probs) != len(y.probs) {
			return false
		}
		for i, p := range x.probs {
			if math.Float64bits(p) != math.Float64bits(y.probs[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Decode reverses Encode.
func Decode(buf []byte) (Strategy, error) {
	if len(buf) < 3 {
		return nil, fmt.Errorf("%w: too short (%d bytes)", ErrCorrupt, len(buf))
	}
	if buf[0] != codecVersion {
		return nil, fmt.Errorf("%w: unknown version %d", ErrCorrupt, buf[0])
	}
	mem := int(buf[2])
	if mem < 1 || mem > 6 {
		return nil, fmt.Errorf("%w: memory steps %d out of range", ErrCorrupt, mem)
	}
	payload := buf[3:]
	switch buf[1] {
	case kindPure:
		p := NewPure(mem)
		want := len(p.bits) * 8
		if len(payload) != want {
			return nil, fmt.Errorf("%w: pure payload %d bytes, want %d", ErrCorrupt, len(payload), want)
		}
		for i := range p.bits {
			p.bits[i] = binary.LittleEndian.Uint64(payload[8*i:])
		}
		// Canonicalise: reject encodings that set bits beyond the state count,
		// which would make Equal unreliable.
		tail := p.bits[len(p.bits)-1]
		p.maskTail()
		if tail != p.bits[len(p.bits)-1] {
			return nil, fmt.Errorf("%w: pure payload sets bits beyond the state count", ErrCorrupt)
		}
		return p, nil
	case kindMixed:
		m := NewMixed(mem)
		want := len(m.probs) * 8
		if len(payload) != want {
			return nil, fmt.Errorf("%w: mixed payload %d bytes, want %d", ErrCorrupt, len(payload), want)
		}
		for i := range m.probs {
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
			if v < 0 || v > 1 || math.IsNaN(v) {
				return nil, fmt.Errorf("%w: probability %v at state %d outside [0,1]", ErrCorrupt, v, i)
			}
			m.probs[i] = v
		}
		return m, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, buf[1])
	}
}

// EncodedSize returns the number of bytes Encode produces for a pure
// strategy of the given memory depth; the message-passing layer uses it to
// size broadcast buffers without materialising a strategy first.
func EncodedSize(memSteps int) int {
	p := NewPure(memSteps)
	return 3 + 8*len(p.bits)
}
