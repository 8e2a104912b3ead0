package game

import "fmt"

// KernelMode selects the inner-loop implementation Engine.Play uses for a
// noiseless game.
//
// Two deterministic memory-n automata that both start from the
// all-cooperate history play a deterministic walk, and the opponent's state
// is always the focal state with each round's bit pair swapped, so the walk
// lives on the focal player's 4^n states alone (4 at the paper's
// memory-one).  It must therefore revisit a state within 4^n rounds, and
// from there it repeats; the totals of a rounds-long game follow in closed
// form — prefix + k*cycle + tail — instead of replaying every round.  With
// an integer-valued payoff matrix every partial sum is an exactly
// representable integer, so the closed form is bit-identical to the
// replayed sum; engines therefore keep their per-seed trajectories
// unchanged whichever mode runs.
type KernelMode int

const (
	// KernelAuto (the default) closes the joint-state cycle whenever the
	// game qualifies: noiseless, with an integer-valued payoff matrix.
	// Games that do not qualify replay every round exactly as
	// KernelFullReplay.
	// Batches (Engine.PlayBatch, PlayPairs) of qualifying games take the
	// SWAR kernel up to memory three (batchAutoMaxMemory); at memory four to
	// six, on an amd64 CPU with AVX-512, a chunk of at least minVectorLanes
	// of them takes the gather lanes instead (see walksEnabled): a vector
	// gate closes the short walks, and the games still running after it
	// replay their remaining rounds sixteen to a vector.
	KernelAuto KernelMode = iota
	// KernelFullReplay always replays all rounds; it is the pre-optimization
	// reference kernel and the baseline the perf tables compare against.
	KernelFullReplay
	// KernelBatch behaves like KernelAuto for single games but forces
	// Engine.PlayBatch to use the bit-sliced SWAR kernel at every memory
	// depth for eligible lanes (KernelAuto only batches up to memory-3,
	// where the multiplexer tree is cheaper than the scalar loop, and takes
	// the gather lanes past it).  Like the other fast paths it is
	// bit-identical per seed, so the mode exists for forcing the batch path
	// in measurements and tests rather than for changing outcomes.
	KernelBatch
)

// String implements fmt.Stringer.
func (m KernelMode) String() string {
	switch m {
	case KernelAuto:
		return "auto"
	case KernelFullReplay:
		return "full-replay"
	case KernelBatch:
		return "batch"
	default:
		return fmt.Sprintf("KernelMode(%d)", int(m))
	}
}

// Valid reports whether m is one of the defined kernel modes.
func (m KernelMode) Valid() bool {
	return m == KernelAuto || m == KernelFullReplay || m == KernelBatch
}

// ParseKernelMode maps the names accepted by command-line flags ("auto",
// "full-replay", "batch") to a KernelMode; the empty string selects
// KernelAuto.
func ParseKernelMode(s string) (KernelMode, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "full-replay":
		return KernelFullReplay, nil
	case "batch":
		return KernelBatch, nil
	default:
		return KernelAuto, fmt.Errorf("game: unknown kernel mode %q (want auto, full-replay or batch)", s)
	}
}

// totals is the running sum of a game's first r rounds.
type totals struct {
	fitA, fitB   float64
	coopA, coopB int
}

// firstVisit records the round at which the walk first entered a state;
// stamp tells this game's entries from those of earlier games.
type firstVisit struct {
	stamp uint32
	round int32
}

// cycleBuffers is the scratch of one cycle-closing walk.  Engines keep them
// in a sync.Pool like batchBuffers, so the steady-state walk allocates
// nothing.  Each game takes a fresh stamp instead of clearing first, so a
// game touches only the states it visits.
type cycleBuffers struct {
	stamp  uint32
	first  []firstVisit // per focal state, 4^n entries
	prefix []totals     // prefix[r] = totals of rounds [0, r)
}

func (e *Engine) getCycleBuffers() *cycleBuffers {
	if buf, ok := e.cyclePool.Get().(*cycleBuffers); ok {
		return buf
	}
	numStates := NumStates(e.memSteps)
	return &cycleBuffers{
		first: make([]firstVisit, numStates),
		// The walk revisits a state by round 4^n at the latest, so it never
		// records more prefixes than states.
		prefix: make([]totals, min(e.rounds, numStates)),
	}
}

// playCycleClosing plays one noiseless game between the packed move tables
// wa and wb in a single pass over the focal player's states.  Each state's
// first-visit round is stamped and the running totals are kept as prefix
// sums; at the first revisit, at round r of a state first entered at round
// mu, the rest of the game repeats the cycle [mu, r), so the totals are
// prefix(mu) + k*cycle + tail, read off the prefix sums.  It reports
// closed=false when the game ends before any revisit; the running totals are
// then exactly the round-by-round replay.  Callers guarantee the payoff
// matrix is integer-valued, which makes the closed form bit-identical to the
// replayed sum.
func (e *Engine) playCycleClosing(wa, wb []uint64) (res Result, closed bool) {
	buf := e.getCycleBuffers()
	defer e.cyclePool.Put(buf)
	buf.stamp++
	if buf.stamp == 0 {
		// The stamp wrapped: forget every earlier game's visits.
		clear(buf.first)
		buf.stamp = 1
	}
	stamp, first, prefix := buf.stamp, buf.first, buf.prefix
	mask := len(first) - 1
	rounds := e.rounds
	var run totals
	// The opponent's state is the focal state with each round's bit pair
	// swapped; it is tracked alongside but never stamped.
	sA, sB := InitialState, InitialState
	for r := 0; r < rounds; r++ {
		if v := first[sA]; v.stamp == stamp {
			mu := int(v.round)
			reps := (rounds - mu) / (r - mu)
			pre, tail := prefix[mu], prefix[mu+(rounds-mu)%(r-mu)]
			return Result{
				FitnessA:      pre.fitA + float64(reps)*(run.fitA-pre.fitA) + (tail.fitA - pre.fitA),
				FitnessB:      pre.fitB + float64(reps)*(run.fitB-pre.fitB) + (tail.fitB - pre.fitB),
				CooperationsA: pre.coopA + reps*(run.coopA-pre.coopA) + (tail.coopA - pre.coopA),
				CooperationsB: pre.coopB + reps*(run.coopB-pre.coopB) + (tail.coopB - pre.coopB),
				Rounds:        rounds,
			}, true
		}
		first[sA] = firstVisit{stamp: stamp, round: int32(r)}
		prefix[r] = run
		ma := int(wa[sA>>6]>>(uint(sA)&63)) & 1
		mb := int(wb[sB>>6]>>(uint(sB)&63)) & 1
		run.fitA += e.table[ma<<1|mb]
		run.fitB += e.table[mb<<1|ma]
		run.coopA += 1 - ma
		run.coopB += 1 - mb
		sA = (sA<<2 | ma<<1 | mb) & mask
		sB = (sB<<2 | mb<<1 | ma) & mask
	}
	return Result{
		FitnessA:      run.fitA,
		FitnessB:      run.fitB,
		CooperationsA: run.coopA,
		CooperationsB: run.coopB,
		Rounds:        rounds,
	}, false
}
