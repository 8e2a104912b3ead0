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

// decodeFitness reads the fitness an SSet rank returned under tag; from
// names the sending rank in the error a payload of the wrong length gives.
func decodeFitness(buf []byte, from, tag int) (float64, error) {
	if len(buf) != 8 {
		return 0, fmt.Errorf("parallel: rank %d returned a %d-byte fitness payload (tag %d), want 8", from, len(buf), tag)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), nil
}

// encodeTable packs the full strategy table: a uint32 count followed by
// length-prefixed strategy encodings.
func encodeTable(table []strategy.Strategy) ([]byte, error) {
	out := make([]byte, 4, 4+len(table)*16)
	binary.LittleEndian.PutUint32(out, uint32(len(table)))
	for i, s := range table {
		var err error
		if out, err = appendStrategy(out, s); err != nil {
			return nil, fmt.Errorf("parallel: encoding strategy %d: %w", i, err)
		}
	}
	return out, nil
}

// appendStrategy appends s's encoding to dst behind its uint32 length.
func appendStrategy(dst []byte, s strategy.Strategy) ([]byte, error) {
	at := len(dst)
	out, err := strategy.AppendEncode(binary.LittleEndian.AppendUint32(dst, 0), s)
	if err != nil {
		return dst, err
	}
	binary.LittleEndian.PutUint32(out[at:], uint32(len(out)-at-4))
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

// encodeUpdate appends an updateMessage to dst: a flag byte (bit 0
// learning, bit 1 mutation), then for an adoption the uint32 learner and
// teacher indices, then for a mutation the uint32 target index and a
// length-prefixed strategy encoding.
func encodeUpdate(dst []byte, u updateMessage) ([]byte, error) {
	var flags byte
	if u.learning {
		flags |= updateLearning
	}
	if u.mutation {
		flags |= updateMutation
	}
	out := append(dst, flags)
	if u.learning {
		out = binary.LittleEndian.AppendUint32(out, uint32(u.learner))
		out = binary.LittleEndian.AppendUint32(out, uint32(u.teacher))
	}
	if u.mutation {
		var err error
		if out, err = appendStrategy(binary.LittleEndian.AppendUint32(out, uint32(u.target)), u.targetStrategy); err != nil {
			return dst, err
		}
	}
	return out, nil
}

// decodeUpdate reverses encodeUpdate for a table of n SSets, decoding a
// mutant into scratch, which must have the run's memory depth: the
// returned targetStrategy is scratch itself, valid until the next decode.
// It rejects unknown flag bits, any learner, teacher or target index
// outside [0, n), and a mutant of another kind or depth than scratch, so
// an accepted update can be applied without further checks.
func decodeUpdate(buf []byte, n int, scratch *strategy.Pure) (updateMessage, error) {
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
		if err := strategy.DecodeInto(scratch, buf[:size]); err != nil {
			return u, err
		}
		u.targetStrategy = scratch
		buf = buf[size:]
	}
	if len(buf) != 0 {
		return u, fmt.Errorf("parallel: %d trailing bytes after update payload", len(buf))
	}
	return u, nil
}
