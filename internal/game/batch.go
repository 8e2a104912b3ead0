package game

import (
	"fmt"
	"sync/atomic"

	"evogame/internal/bitvec"
	"evogame/internal/rng"
)

// This file implements the bit-sliced (SWAR) batch kernel: one focal
// strategy playing up to 64 opponents simultaneously, one game per bit lane
// of a uint64 word (see internal/bitvec).  It targets the full-replay
// workload the scaling studies measure — every round of every game is
// played, but 64 games advance per word operation instead of one.
//
// Layout.  The focal player's joint history against all 64 opponents is
// kept as 2n bit planes: plane j holds bit j of the focal's packed game
// state in every lane.  The opponents' own states need no storage at all —
// an opponent's state is the focal state with each round's (my, opp) bit
// pair swapped, so plane j of the opponents' view is focal plane j^1.  Next
// moves come from a multiplexer tree over the 4^n-entry move tables
// (bitvec.MuxSelect): the focal's table broadcasts to 0/^0 leaf words, the
// opponents' tables are transposed once per batch so bit L of leaf s is
// lane L's move in state s.  Per-round outcomes accumulate in vertical
// ripple-carry counters; the per-lane totals are reconstructed once at the
// end of the batch.
//
// Exactness.  With an integer-valued payoff matrix the scalar loop's
// running fitness sum is an exactly representable integer after every
// round, and the batch kernel's count*payoff closed form produces the same
// integer, so the two are bit-identical; the kernel is therefore gated on
// Matrix.IntegerValued exactly like the cycle-closing kernel.  Noise is
// handled by pre-drawing each lane's per-round flips from that game's own
// rng.Source in canonical scalar order (two draws per round, focal player
// first), so the RNG streams — and therefore the trajectory of any caller —
// are unchanged.  Games the kernel cannot replay exactly (mixed strategies,
// fractional payoff matrices, players without packed move tables) fall back
// to the scalar Play path lane by lane.

// BatchLanes is the number of games one bit-sliced batch plays at once: one
// lane per bit of a uint64 word.  Engine.PlayBatch accepts any number of
// opponents and chunks internally, so callers only need the constant to
// size reusable result buffers.
const BatchLanes = bitvec.Lanes

// batchAutoMaxMemory is the largest memory depth at which KernelAuto routes
// eligible batches through the SWAR kernel.  The multiplexer tree costs
// ~4^n word operations per round, so past memory-3 the scalar loop (and the
// cycle-closing kernel) win; KernelBatch overrides the bound for
// measurement.
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
}

// KernelStats returns a snapshot of the engine's kernel-mix counters.
func (e *Engine) KernelStats() KernelStats {
	return KernelStats{
		ScalarGames: e.stats.scalarGames.Load(),
		CycleGames:  e.stats.cycleGames.Load(),
		BatchGames:  e.stats.batchGames.Load(),
		BatchCalls:  e.stats.batchCalls.Load(),
	}
}

// batchBuffers is the scratch state of one SWAR batch.  Engines keep them
// in a sync.Pool so the steady-state batch path allocates nothing; sizes
// depend only on the engine's memory depth and round count, which are fixed
// at construction.
type batchBuffers struct {
	focalT   []uint64    // focal move table broadcast to 0/^0 leaves, 4^n words
	oppT     []uint64    // transposed opponent tables: bit L of word s = lane L's move in state s
	scratch  []uint64    // multiplexer scratch, 4^n words (MuxSelect destroys its leaves)
	planes   []uint64    // focal joint-history planes: plane j = state bit j of every lane
	oppView  []uint64    // planes pair-swapped into the opponents' perspective
	counts   [3][]uint64 // vertical counters for outcome codes CC, CD, DC
	flipA    []uint64    // pre-drawn noise masks, one word per round (nil when noiseless)
	flipB    []uint64
	words    [BatchLanes][]uint64 // packed move table of each occupied lane
	lane2idx [BatchLanes]int      // occupied lane -> index into the opponents slice
}

func (e *Engine) getBatchBuffers() *batchBuffers {
	if buf, ok := e.batchPool.Get().(*batchBuffers); ok {
		return buf
	}
	numStates := NumStates(e.memSteps)
	buf := &batchBuffers{
		focalT:  make([]uint64, numStates),
		oppT:    make([]uint64, numStates),
		scratch: make([]uint64, numStates),
		planes:  make([]uint64, 2*e.memSteps),
		oppView: make([]uint64, 2*e.memSteps),
	}
	width := bitvec.CounterWidth(e.rounds)
	for c := range buf.counts {
		buf.counts[c] = make([]uint64, width)
	}
	if e.noise > 0 {
		buf.flipA = make([]uint64, e.rounds)
		buf.flipB = make([]uint64, e.rounds)
	}
	return buf
}

func (e *Engine) putBatchBuffers(buf *batchBuffers) {
	for l := range buf.words {
		buf.words[l] = nil // do not pin strategy tables in the pool
	}
	e.batchPool.Put(buf)
}

// batchFocalWords returns the focal player's packed move table when the
// engine's kernel mode and the game's parameters allow the SWAR path, and
// nil when every game of the batch must take the scalar fallback.
func (e *Engine) batchFocalWords(a Player) []uint64 {
	if !e.intPayoff || !a.Deterministic() || a.MemorySteps() != e.memSteps {
		return nil
	}
	mt, ok := a.(MoveTable)
	if !ok {
		return nil
	}
	switch e.kernel {
	case KernelFullReplay:
		// The reference mode measures the original scalar loop; the batch API
		// stays available but plays every lane through Engine.Play.
		return nil
	case KernelAuto:
		if e.memSteps > batchAutoMaxMemory {
			return nil
		}
	}
	return mt.Words()
}

// PlayBatch plays one game between a and every opponent, writing game i's
// outcome to out[i].  It is observably identical to calling Play(a,
// opponents[i], srcs[i]) in index order — same results bit for bit, same
// consumption of each source — but routes eligible games through the
// bit-sliced batch kernel, 64 lanes at a time, when the kernel mode allows
// it (see KernelMode).  srcs may be nil for fully deterministic noiseless
// batches; otherwise it must hold one source per opponent (entries for
// deterministic games may be nil when noise is off).  Opponent counts that
// are not a multiple of 64 are fine; the ragged tail simply occupies fewer
// lanes.
func (e *Engine) PlayBatch(a Player, opponents []Player, srcs []*rng.Source, out []Result) error {
	if a == nil {
		return fmt.Errorf("game: PlayBatch requires a focal player")
	}
	if len(out) != len(opponents) {
		return fmt.Errorf("game: PlayBatch result slice has %d entries for %d opponents", len(out), len(opponents))
	}
	if srcs != nil && len(srcs) != len(opponents) {
		return fmt.Errorf("game: PlayBatch source slice has %d entries for %d opponents", len(srcs), len(opponents))
	}
	aw := e.batchFocalWords(a)
	for lo := 0; lo < len(opponents); lo += BatchLanes {
		hi := lo + BatchLanes
		if hi > len(opponents) {
			hi = len(opponents)
		}
		var chunkSrcs []*rng.Source
		if srcs != nil {
			chunkSrcs = srcs[lo:hi]
		}
		if err := e.playBatchChunk(a, aw, opponents[lo:hi], chunkSrcs, out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// playBatchChunk plays one chunk of at most BatchLanes opponents.  Lanes
// the SWAR kernel cannot replay exactly fall back to the scalar Play path
// individually; aw == nil forces the fallback for the whole chunk.
func (e *Engine) playBatchChunk(a Player, aw []uint64, opps []Player, srcs []*rng.Source, out []Result) error {
	var buf *batchBuffers
	lanes := 0
	for i, b := range opps {
		if b == nil {
			if buf != nil {
				e.putBatchBuffers(buf)
			}
			return fmt.Errorf("game: PlayBatch got a nil opponent")
		}
		eligible := aw != nil && b.Deterministic() && b.MemorySteps() == e.memSteps
		var mt MoveTable
		if eligible {
			mt, eligible = b.(MoveTable)
		}
		if eligible && e.noise > 0 && (srcs == nil || srcs[i] == nil) {
			if buf != nil {
				e.putBatchBuffers(buf)
			}
			return fmt.Errorf("game: rng source required (noise=%v, deterministic=%v/%v)",
				e.noise, a.Deterministic(), b.Deterministic())
		}
		if !eligible {
			var src *rng.Source
			if srcs != nil {
				src = srcs[i]
			}
			res, err := e.Play(a, b, src)
			if err != nil {
				if buf != nil {
					e.putBatchBuffers(buf)
				}
				return err
			}
			out[i] = res
			continue
		}
		if buf == nil {
			buf = e.getBatchBuffers()
		}
		buf.words[lanes] = mt.Words()
		buf.lane2idx[lanes] = i
		lanes++
	}
	if buf == nil {
		return nil
	}
	defer e.putBatchBuffers(buf)

	numStates := NumStates(e.memSteps)
	focalT := buf.focalT[:numStates]
	oppT := buf.oppT[:numStates]
	for s := 0; s < numStates; s++ {
		focalT[s] = bitvec.Broadcast(aw[s>>6]>>(uint(s)&63)&1 == 1)
		oppT[s] = 0
	}
	for l := 0; l < lanes; l++ {
		w := buf.words[l]
		for s := 0; s < numStates; s++ {
			oppT[s] |= (w[s>>6] >> (uint(s) & 63) & 1) << uint(l)
		}
	}

	// Pre-draw the noise flips in canonical scalar order: each lane consumes
	// its own source exactly as the scalar loop would — two draws per round,
	// focal player's flip first, against the same threshold — so the streams
	// stay aligned with full replay.
	noisy := e.noise > 0
	if noisy {
		flipA, flipB := buf.flipA, buf.flipB
		for r := range flipA {
			flipA[r], flipB[r] = 0, 0
		}
		for l := 0; l < lanes; l++ {
			srcs[buf.lane2idx[l]].FlipPairs(e.flipT, uint(l), flipA, flipB)
		}
	}

	planes := buf.planes
	for j := range planes {
		planes[j] = 0 // InitialState: empty history in every lane
	}
	for c := range buf.counts {
		cnt := buf.counts[c]
		for i := range cnt {
			cnt[i] = 0
		}
	}
	scratch := buf.scratch[:numStates]
	oppView := buf.oppView
	for r := 0; r < e.rounds; r++ {
		copy(scratch, focalT)
		moveA := bitvec.MuxSelect(scratch, planes)
		// An opponent's own state is the focal state with each round's
		// (my, opp) bit pair swapped, so its selector planes are the focal
		// planes at index j^1.
		for j := range oppView {
			oppView[j] = planes[j^1]
		}
		copy(scratch, oppT)
		moveB := bitvec.MuxSelect(scratch, oppView)
		if noisy {
			moveA ^= buf.flipA[r]
			moveB ^= buf.flipB[r]
		}
		// Count outcome codes CC, CD, DC per lane; DD follows from the round
		// count at extraction time.
		bitvec.CounterAdd(buf.counts[0], ^(moveA | moveB))
		bitvec.CounterAdd(buf.counts[1], ^moveA&moveB)
		bitvec.CounterAdd(buf.counts[2], moveA&^moveB)
		// state = ((state << 2) | my<<1 | opp) & mask, sliced: shift the
		// planes up a round and insert the new pair; the oldest round falls
		// off the end of the slice.
		for j := len(planes) - 1; j >= 2; j-- {
			planes[j] = planes[j-2]
		}
		planes[1] = moveA
		planes[0] = moveB
	}

	t := e.table
	rounds := e.rounds
	for l := 0; l < lanes; l++ {
		cc := bitvec.CounterLane(buf.counts[0], l)
		cd := bitvec.CounterLane(buf.counts[1], l)
		dc := bitvec.CounterLane(buf.counts[2], l)
		dd := rounds - cc - cd - dc
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
