package parallel

import (
	"encoding/binary"
	"fmt"
	"math"

	"evogame/internal/strategy"
)

// This file defines the wire formats exchanged between the Nature Agent and
// the SSet ranks.  Every message is a flat little-endian byte slice so the
// traffic volume reported by the mpi stats matches what a real MPI
// implementation would move.

func floatBits(v float64) uint64 { return math.Float64bits(v) }

func decodeFitness(buf []byte) float64 {
	if len(buf) != 8 {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf))
}

// encodeTable packs the full strategy table: a uint32 count followed by
// length-prefixed strategy encodings.
func encodeTable(table []strategy.Strategy) ([]byte, error) {
	out := make([]byte, 4, 4+len(table)*16)
	binary.LittleEndian.PutUint32(out, uint32(len(table)))
	for i, s := range table {
		enc, err := strategy.Encode(s)
		if err != nil {
			return nil, fmt.Errorf("parallel: encoding strategy %d: %w", i, err)
		}
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(enc)))
		out = append(out, lenBuf[:]...)
		out = append(out, enc...)
	}
	return out, nil
}

// decodeTable reverses encodeTable.
func decodeTable(buf []byte) ([]strategy.Strategy, error) {
	if len(buf) < 4 {
		return nil, fmt.Errorf("parallel: table payload too short (%d bytes)", len(buf))
	}
	count := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	out := make([]strategy.Strategy, 0, count)
	for i := 0; i < count; i++ {
		if len(buf) < 4 {
			return nil, fmt.Errorf("parallel: table payload truncated at strategy %d", i)
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < n {
			return nil, fmt.Errorf("parallel: table payload truncated inside strategy %d", i)
		}
		s, err := strategy.Decode(buf[:n])
		if err != nil {
			return nil, fmt.Errorf("parallel: decoding strategy %d: %w", i, err)
		}
		out = append(out, s)
		buf = buf[n:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("parallel: %d trailing bytes after table payload", len(buf))
	}
	return out, nil
}

// encodeSelection packs the pairwise-comparison selection broadcast: a flag
// byte followed by the teacher and learner SSet indices.
func encodeSelection(ok bool, teacher, learner int) []byte {
	out := make([]byte, 9)
	if ok {
		out[0] = 1
		binary.LittleEndian.PutUint32(out[1:], uint32(teacher))
		binary.LittleEndian.PutUint32(out[5:], uint32(learner))
	}
	return out
}

// decodeSelection reverses encodeSelection; malformed payloads are treated
// as "no event" since the Nature Agent is the only sender.
func decodeSelection(buf []byte) (ok bool, teacher, learner int) {
	if len(buf) != 9 || buf[0] == 0 {
		return false, 0, 0
	}
	return true, int(binary.LittleEndian.Uint32(buf[1:])), int(binary.LittleEndian.Uint32(buf[5:]))
}

// updateMessage is the per-generation strategy-table update broadcast after
// the learning and mutation phases.  An adoption names only the learner and
// the teacher whose strategy it copies, which every rank already holds; a
// mutation ships the new strategy.
type updateMessage struct {
	learning         bool
	learner, teacher int
	mutation         bool
	target           int
	targetStrategy   strategy.Strategy
}

// Update flag bits.
const (
	updateLearning = 1 << iota
	updateMutation
)

// encodeUpdate packs an updateMessage: a flag byte (bit 0 learning, bit 1
// mutation), then for an adoption the uint32 learner and teacher indices,
// then for a mutation the uint32 target index and a length-prefixed
// strategy encoding.
func encodeUpdate(u updateMessage) ([]byte, error) {
	out := make([]byte, 1, 9)
	if u.learning {
		out[0] |= updateLearning
		out = binary.LittleEndian.AppendUint32(out, uint32(u.learner))
		out = binary.LittleEndian.AppendUint32(out, uint32(u.teacher))
	}
	if u.mutation {
		enc, err := strategy.Encode(u.targetStrategy)
		if err != nil {
			return nil, err
		}
		out[0] |= updateMutation
		out = binary.LittleEndian.AppendUint32(out, uint32(u.target))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(enc)))
		out = append(out, enc...)
	}
	return out, nil
}

// decodeUpdate reverses encodeUpdate for a table of n SSets.  It rejects
// unknown flag bits and any learner, teacher or target index outside
// [0, n), so an accepted update can be applied without further checks.
func decodeUpdate(buf []byte, n int) (updateMessage, error) {
	var u updateMessage
	if len(buf) < 1 {
		return u, fmt.Errorf("parallel: empty update payload")
	}
	flags := buf[0]
	buf = buf[1:]
	if flags&^(updateLearning|updateMutation) != 0 {
		return u, fmt.Errorf("parallel: unknown update flags %#x", flags)
	}
	readIndex := func(field string) (int, error) {
		if len(buf) < 4 {
			return 0, fmt.Errorf("parallel: update payload truncated at the %s index", field)
		}
		v := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint64(v) >= uint64(n) {
			return 0, fmt.Errorf("parallel: update %s %d outside [0,%d)", field, v, n)
		}
		return int(v), nil
	}
	var err error
	if flags&updateLearning != 0 {
		u.learning = true
		if u.learner, err = readIndex("learner"); err != nil {
			return u, err
		}
		if u.teacher, err = readIndex("teacher"); err != nil {
			return u, err
		}
	}
	if flags&updateMutation != 0 {
		u.mutation = true
		if u.target, err = readIndex("target"); err != nil {
			return u, err
		}
		if len(buf) < 4 {
			return u, fmt.Errorf("parallel: update payload truncated at the strategy length")
		}
		size := binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		if uint64(len(buf)) < uint64(size) {
			return u, fmt.Errorf("parallel: update payload truncated inside strategy")
		}
		if u.targetStrategy, err = strategy.Decode(buf[:size]); err != nil {
			return u, err
		}
		buf = buf[size:]
	}
	if len(buf) != 0 {
		return u, fmt.Errorf("parallel: %d trailing bytes after update payload", len(buf))
	}
	return u, nil
}
