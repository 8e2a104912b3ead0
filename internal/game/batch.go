package game

import (
	"fmt"
	"sync/atomic"

	"evogame/internal/bitvec"
	"evogame/internal/rng"
)

// This file implements the bit-sliced (SWAR) batch kernel: up to 64 games
// played simultaneously, one game per bit lane of a uint64 word (see
// internal/bitvec).  Every lane has its own pair of players, so one batch
// can carry one focal strategy against many opponents (PlayBatch) or the
// games of several focal strategies at once (PlayPairs).  Every round of
// every game is played, but 64 games advance per word operation instead of
// one.
//
// Layout.  The focal players' joint histories are kept as 2n bit planes:
// plane j holds bit j of each lane's packed focal game state.  The
// opponents' own states need no storage at all — an opponent's state is the
// focal state with each round's (my, opp) bit pair swapped, so plane j of
// the opponents' view is focal plane j^1.  Both sides' move tables are
// transposed once per batch, so bit L of leaf s is lane L's move in state
// s, and next moves come from a multiplexer tree over those leaves
// (bitvec.MuxSelect), which reads the tables without consuming them.
// Each round records three defection masks (focal, opponent, both); after
// the last round they are summed into vertical counters sixteen rounds at a
// time (bitvec.CounterAddWords), and the per-lane totals are read back
// once.  The round loop has no data-dependent branch: the noise masks are
// XORed in every round (they stay zero on a noiseless engine), and the
// counters never branch on the data either.
//
// Exactness.  With an integer-valued payoff matrix the scalar loop's
// running fitness sum is an exactly representable integer after every
// round, and the batch kernel's count*payoff closed form produces the same
// integer, so the two are bit-identical; the kernel is therefore gated on
// Matrix.IntegerValued exactly like the cycle-closing kernel.  Noise is
// handled by pre-drawing each lane's per-round flips from that game's own
// rng.Source in canonical scalar order (two draws per round, focal player
// first), so the RNG streams — and therefore the trajectory of any caller —
// are unchanged.  Over a fractional payoff matrix, which the kernel cannot
// replay exactly, every game takes the scalar Play path instead, and so
// does a player whose memory depth differs from the engine's, for Play to
// report.

// BatchLanes is the number of games one bit-sliced batch plays at once: one
// lane per bit of a uint64 word.  Engine.PlayBatch accepts any number of
// opponents and chunks internally, so callers only need the constant to
// size reusable result buffers.
const BatchLanes = bitvec.Lanes

// batchAutoMaxMemory is the largest memory depth at which KernelAuto routes
// eligible batches through the SWAR kernel.  The multiplexer tree costs
// ~4^n word operations per round, so past memory-3 the gather lanes (where
// the CPU has AVX-512, see walksEnabled) or the per-game cycle-closing
// kernel win; KernelBatch overrides the bound for measurement.
const batchAutoMaxMemory = 3

// KernelStats is a snapshot of how many games each kernel implementation
// has played since the engine was built.  Engines update the counters
// atomically, so snapshots are safe to take while games are in flight.
type KernelStats struct {
	// ScalarGames counts games replayed round by round by Engine.Play.
	ScalarGames int64
	// CycleGames counts games resolved by the cycle-closing closed form.
	CycleGames int64
	// BatchGames counts games played inside SWAR batches, and BatchCalls the
	// number of batches; together they give the mean lane occupancy.
	BatchGames int64
	BatchCalls int64
	// VectorGames counts games the AVX-512 gather lanes replayed to the end
	// after their gate left them running (see walkGateRounds).
	VectorGames int64
}

// BatchLaneOccupancy returns the mean fraction of the 64 lanes occupied per
// SWAR batch, or 0 if no batches ran.
func (s KernelStats) BatchLaneOccupancy() float64 {
	if s.BatchCalls == 0 {
		return 0
	}
	return float64(s.BatchGames) / float64(s.BatchCalls*BatchLanes)
}

// kernelCounters is the engine-internal mutable form of KernelStats.
type kernelCounters struct {
	scalarGames atomic.Int64
	cycleGames  atomic.Int64
	batchGames  atomic.Int64
	batchCalls  atomic.Int64
	vectorGames atomic.Int64
}

// KernelStats returns a snapshot of the engine's kernel-mix counters.
func (e *Engine) KernelStats() KernelStats {
	return KernelStats{
		ScalarGames: e.stats.scalarGames.Load(),
		CycleGames:  e.stats.cycleGames.Load(),
		BatchGames:  e.stats.batchGames.Load(),
		BatchCalls:  e.stats.batchCalls.Load(),
		VectorGames: e.stats.vectorGames.Load(),
	}
}

// batchBuffers is the scratch state of one SWAR batch.  Engines keep them
// in a sync.Pool so the steady-state batch path allocates nothing; sizes
// depend only on the engine's memory depth and round count, which are fixed
// at construction.
type batchBuffers struct {
	focalT   []uint64 // transposed focal tables: bit L of word s = lane L's focal move in state s
	oppT     []uint64 // transposed opponent tables, likewise
	scratch  []uint64 // multiplexer scratch, 4^n/2 words
	planes   []uint64 // focal joint-history planes: plane j = state bit j of every lane
	oppView  []uint64 // planes pair-swapped into the opponents' perspective
	flipA    []uint64 // pre-drawn noise masks, one word per round (all zero when noiseless)
	flipB    []uint64
	moves    [3][]uint64             // per-round defection masks: focal, opponent, both
	counts   [3][]uint64             // vertical counters of the moves' rounds per lane
	words    [2][BatchLanes][]uint64 // packed move tables of each occupied lane: focal, opponent
	lane2idx [BatchLanes]int         // occupied lane -> index into the chunk's pairs
}

func (e *Engine) getBatchBuffers() *batchBuffers {
	if buf, ok := e.batchPool.Get().(*batchBuffers); ok {
		return buf
	}
	numStates := NumStates(e.memSteps)
	buf := &batchBuffers{
		focalT:  make([]uint64, numStates),
		oppT:    make([]uint64, numStates),
		scratch: make([]uint64, numStates/2),
		planes:  make([]uint64, 2*e.memSteps),
		oppView: make([]uint64, 2*e.memSteps),
		flipA:   make([]uint64, e.rounds),
		flipB:   make([]uint64, e.rounds),
	}
	width := bitvec.CounterWidth(e.rounds)
	for c := range buf.counts {
		buf.moves[c] = make([]uint64, e.rounds)
		buf.counts[c] = make([]uint64, width)
	}
	return buf
}

func (e *Engine) putBatchBuffers(buf *batchBuffers) {
	for side := range buf.words {
		clear(buf.words[side][:]) // do not pin strategy tables in the pool
	}
	e.batchPool.Put(buf)
}

// batchEnabled reports whether the engine's kernel mode and payoff matrix
// let eligible games take the SWAR path at all.
func (e *Engine) batchEnabled() bool {
	switch e.kernel {
	case KernelFullReplay:
		// The reference mode measures the original scalar loop; the batch API
		// stays available but plays every lane through Engine.Play.
		return false
	case KernelAuto:
		if e.memSteps > batchAutoMaxMemory {
			return false
		}
	}
	return e.intPayoff
}

// laneWords returns p's packed move table when p can occupy a lane, and nil
// when its memory depth differs from the engine's, so that Play reports the
// mismatch.
func (e *Engine) laneWords(p Player) []uint64 {
	if p.MemorySteps() != e.memSteps {
		return nil
	}
	return p.Words()
}

// PlayBatch plays one game between a and every opponent, writing game i's
// outcome to out[i].  It is observably identical to calling Play(a,
// opponents[i], srcs[i]) in index order — same results bit for bit, same
// consumption of each source — but routes eligible games through the
// bit-sliced batch kernel, 64 lanes at a time, when the kernel mode allows
// it (see KernelMode).  srcs may be nil when noise is off; otherwise it
// must hold one source per opponent.  Opponent counts that
// are not a multiple of 64 are fine; the ragged tail simply occupies fewer
// lanes.
func (e *Engine) PlayBatch(a Player, opponents []Player, srcs []*rng.Source, out []Result) error {
	if a == nil {
		return fmt.Errorf("game: PlayBatch requires a focal player")
	}
	if err := checkBatchArgs("PlayBatch", len(opponents), srcs, out); err != nil {
		return err
	}
	var focal [BatchLanes]Player
	for l := range focal[:min(BatchLanes, len(opponents))] {
		focal[l] = a
	}
	for lo := 0; lo < len(opponents); lo += BatchLanes {
		hi := min(lo+BatchLanes, len(opponents))
		if err := e.playChunk(focal[:hi-lo], opponents[lo:hi], chunkSources(srcs, lo, hi), out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// PlayPairs plays one game between as[i] and bs[i] for every i, writing its
// outcome to out[i].  It is observably identical to calling Play(as[i],
// bs[i], srcs[i]) in index order, with the same source rules as PlayBatch,
// but every lane of a batch may carry a different focal player, so the
// games of several focal strategies share one bit-sliced batch.
func (e *Engine) PlayPairs(as, bs []Player, srcs []*rng.Source, out []Result) error {
	if len(as) != len(bs) {
		return fmt.Errorf("game: PlayPairs has %d focal players for %d opponents", len(as), len(bs))
	}
	if err := checkBatchArgs("PlayPairs", len(bs), srcs, out); err != nil {
		return err
	}
	for lo := 0; lo < len(bs); lo += BatchLanes {
		hi := min(lo+BatchLanes, len(bs))
		if err := e.playChunk(as[lo:hi], bs[lo:hi], chunkSources(srcs, lo, hi), out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

func checkBatchArgs(op string, games int, srcs []*rng.Source, out []Result) error {
	if len(out) != games {
		return fmt.Errorf("game: %s result slice has %d entries for %d games", op, len(out), games)
	}
	if srcs != nil && len(srcs) != games {
		return fmt.Errorf("game: %s source slice has %d entries for %d games", op, len(srcs), games)
	}
	return nil
}

func chunkSources(srcs []*rng.Source, lo, hi int) []*rng.Source {
	if srcs == nil {
		return nil
	}
	return srcs[lo:hi]
}

// playChunk plays the games (as[i], bs[i]) of one chunk of at most
// BatchLanes pairs; it is the one batch routine behind PlayBatch and
// PlayPairs.  At memory four to six it hands the chunk to the gather lanes
// where they run (see walksEnabled).  Pairs the SWAR kernel cannot replay
// exactly fall back to the scalar Play path individually.
func (e *Engine) playChunk(as, bs []Player, srcs []*rng.Source, out []Result) error {
	if e.walksEnabled() {
		return e.playWalks(as, bs, srcs, out)
	}
	var buf *batchBuffers
	if e.batchEnabled() {
		buf = e.getBatchBuffers()
		defer e.putBatchBuffers(buf)
	}
	lanes := 0
	for i, b := range bs {
		a := as[i]
		if a == nil || b == nil {
			return fmt.Errorf("game: batch game %d has a nil player", i)
		}
		var aw, bw []uint64
		if buf != nil {
			if aw = e.laneWords(a); aw != nil {
				bw = e.laneWords(b)
			}
		}
		if bw == nil {
			var src *rng.Source
			if srcs != nil {
				src = srcs[i]
			}
			res, err := e.Play(a, b, src)
			if err != nil {
				return err
			}
			out[i] = res
			continue
		}
		if e.noise > 0 && (srcs == nil || srcs[i] == nil) {
			return fmt.Errorf("game: rng source required (noise=%v)", e.noise)
		}
		buf.words[0][lanes], buf.words[1][lanes] = aw, bw
		buf.lane2idx[lanes] = i
		lanes++
	}
	if lanes == 0 {
		return nil
	}

	// Transpose both sides' move tables: bit L of leaf s is lane L's move in
	// state s.
	focalT, oppT := buf.focalT, buf.oppT
	clear(focalT)
	clear(oppT)
	for l := 0; l < lanes; l++ {
		aw, bw := buf.words[0][l], buf.words[1][l]
		for s := range focalT {
			focalT[s] |= (aw[s>>6] >> (uint(s) & 63) & 1) << uint(l)
			oppT[s] |= (bw[s>>6] >> (uint(s) & 63) & 1) << uint(l)
		}
	}

	// Pre-draw the noise flips in canonical scalar order: each lane consumes
	// its own source exactly as the scalar loop would — two draws per round,
	// focal player's flip first, against the same threshold — so the streams
	// stay aligned with full replay.  rng.FlipLanes draws eight lanes per
	// pass where it can, and keeps that order even when lanes share a
	// source.  A noiseless engine never writes the masks, so they stay zero.
	if e.noise > 0 {
		clear(buf.flipA)
		clear(buf.flipB)
		var lane [BatchLanes]*rng.Source
		for l := 0; l < lanes; l++ {
			lane[l] = srcs[buf.lane2idx[l]]
		}
		rng.FlipLanes(lane[:lanes], e.flipT, buf.flipA, buf.flipB)
	}

	if e.memSteps == 1 {
		playRoundsMemoryOne(buf)
	} else {
		playRounds(buf)
	}
	for c, cnt := range buf.counts {
		clear(cnt)
		bitvec.CounterAddWords(cnt, buf.moves[c])
	}

	t := e.table
	rounds := e.rounds
	for l := 0; l < lanes; l++ {
		defA := bitvec.CounterLane(buf.counts[0], l)
		defB := bitvec.CounterLane(buf.counts[1], l)
		dd := bitvec.CounterLane(buf.counts[2], l)
		cd, dc := defB-dd, defA-dd
		cc := rounds - cd - dc - dd
		out[buf.lane2idx[l]] = Result{
			FitnessA:      float64(cc)*t[0] + float64(cd)*t[1] + float64(dc)*t[2] + float64(dd)*t[3],
			FitnessB:      float64(cc)*t[0] + float64(cd)*t[2] + float64(dc)*t[1] + float64(dd)*t[3],
			CooperationsA: cc + cd,
			CooperationsB: cc + dc,
			Rounds:        rounds,
		}
	}
	e.stats.batchGames.Add(int64(lanes))
	e.stats.batchCalls.Add(1)
	return nil
}

// playRounds plays every round of a batch at any memory depth, recording
// each round's defection masks in buf.moves; the outcome counts follow from
// them after the last round.
func playRounds(buf *batchBuffers) {
	planes, oppView, scratch := buf.planes, buf.oppView, buf.scratch
	clear(planes) // InitialState: empty history in every lane
	n := len(buf.flipA)
	flipB, movesA, movesB, movesAB := buf.flipB[:n], buf.moves[0][:n], buf.moves[1][:n], buf.moves[2][:n]
	for r, fa := range buf.flipA {
		moveA := bitvec.MuxSelect(scratch, buf.focalT, planes) ^ fa
		// An opponent's own state is the focal state with each round's
		// (my, opp) bit pair swapped, so its selector planes are the focal
		// planes at index j^1.
		for j := range oppView {
			oppView[j] = planes[j^1]
		}
		moveB := bitvec.MuxSelect(scratch, buf.oppT, oppView) ^ flipB[r]
		movesA[r], movesB[r], movesAB[r] = moveA, moveB, moveA&moveB
		// state = ((state << 2) | my<<1 | opp) & mask, sliced: shift the
		// planes up a round and insert the new pair; the oldest round falls
		// off the end of the slice.
		for j := len(planes) - 1; j >= 2; j-- {
			planes[j] = planes[j-2]
		}
		planes[1] = moveA
		planes[0] = moveB
	}
}

// playRoundsMemoryOne is playRounds unrolled for memory one: the state is
// the last round's pair, so the two planes and the four leaves of each
// table stay in registers.
func playRoundsMemoryOne(buf *batchBuffers) {
	f0, f1, f2, f3 := buf.focalT[0], buf.focalT[1], buf.focalT[2], buf.focalT[3]
	o0, o1, o2, o3 := buf.oppT[0], buf.oppT[1], buf.oppT[2], buf.oppT[3]
	var my, opp uint64 // focal state bits 1 and 0; the opponent's state swaps them
	n := len(buf.flipA)
	flipB, movesA, movesB, movesAB := buf.flipB[:n], buf.moves[0][:n], buf.moves[1][:n], buf.moves[2][:n]
	for r, fa := range buf.flipA {
		lo, hi := f0&^opp|f1&opp, f2&^opp|f3&opp
		moveA := (lo&^my | hi&my) ^ fa
		lo, hi = o0&^my|o1&my, o2&^my|o3&my
		moveB := (lo&^opp | hi&opp) ^ flipB[r]
		movesA[r], movesB[r], movesAB[r] = moveA, moveB, moveA&moveB
		my, opp = moveA, moveB
	}
}
