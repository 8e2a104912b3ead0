package game

import (
	"fmt"
	"math"
	"unsafe"

	"evogame/internal/cpuid"
	"evogame/internal/rng"
)

// This file implements the gather-lane route of PlayBatch and PlayPairs:
// noiseless games between packed move tables at memory four to six, where
// the SWAR multiplexer tree costs more than the scalar walk (see
// batchAutoMaxMemory).  walk16, an AVX-512 kernel, plays the eligible games
// of a chunk at once, sixteen lanes per vector, in two passes:
//
//   - The gate.  Every game plays its first walkGateRounds rounds in the
//     kernel, which records each lane's state after every round, and
//     revisits16 scans those states for each lane's first revisit.  A game
//     whose walk revisits a state within the gate — two players who both
//     cooperate in the all-C start state revisit it at round one — takes
//     the cycle kernel's closed form, read off the recorded outcomes.
//   - The replay.  The games still running move to the front lanes and
//     replay every remaining round in the kernel.  Past the gate a random
//     memory-six walk rarely closes before its game is half over, so
//     replaying is cheaper than walking on to the revisit.
//
// A chunk with fewer than minVectorLanes eligible games, or with fewer
// than that many still running after the gate, plays them through Play.
//
// Layout.  Each lane holds the dword offsets of its two players' packed
// move tables from one base table (see laneBuffers.add).  A round gathers,
// per lane, the dword of each table that holds the player's move bit,
// rotates the bit down, and counts the round's outcome (CC, CD, DC, DD)
// in one byte each of a packed counter; the counters are read back every
// maxCounterRounds rounds.
//
// Exactness.  The route runs only under an integer-valued payoff matrix,
// like the cycle-closing and SWAR kernels: totals are outcome counts ×
// payoff, every one an exactly representable integer, so they equal the
// round-by-round float sum bit for bit.

// useWalkLanes reports whether PlayBatch and PlayPairs route eligible games
// through the gather kernel.  It is set once, at package init, from
// cpuid.AVX512, which is always false where the kernel is not built (the
// purego tag, every GOARCH but amd64); tests clear it to run the per-lane
// path.
var useWalkLanes = cpuid.AVX512()

// walkGateRounds is the number of rounds the gate plays before it gives up
// on closing a game's cycle.  Sixteen rounds close the walks of
// defect-biased tables, which fill their history with mutual defection
// within about n+1 rounds, while a random walk that has not closed by then
// rarely closes before round 64; 12 measured about the same and 24 slower
// (docs/PERFORMANCE.md).  Engines with no more rounds than this keep the
// per-game cycle-closing path.
const walkGateRounds = 16

// laneGroup is the number of games one 512-bit vector of walk16 carries.
const laneGroup = 16

// minVectorLanes is the fewest games walk16 takes at once, before the gate
// and after it.  With one group alone the rounds wait on the latency of
// its gathers, more than twice the time per group of three overlapped
// groups, so fewer games than a full group are cheaper played one at a
// time (see docs/PERFORMANCE.md).
const minVectorLanes = laneGroup

// maxCounterRounds is the most rounds walk16 may count before its byte
// counters are read back.
const maxCounterRounds = 255

// laneState is walk16's per-lane state, one array per field so that
// sixteen consecutive lanes load as one vector: group g is lanes [16g,
// 16g+16).  walk16 addresses the fields at fixed offsets (sA at 0, sB at
// 256, offA at 512, offB at 768, ctr at 1024); keep their order and size.
type laneState struct {
	sA, sB     [BatchLanes]uint32 // focal and opponent state entering the next round
	offA, offB [BatchLanes]uint32 // signed dword offset of each player's table from laneBuffers.base
	ctr        [BatchLanes]uint32 // byte c counts the rounds with outcome code c
}

// laneBuffers is the scratch of one chunk on the gather-lane route, pooled
// like cycleBuffers and batchBuffers so the steady state allocates nothing.
type laneBuffers struct {
	st     laneState
	base   *uint64 // the table the lanes' dword offsets count from
	lanes  int     // games on the lanes
	idx    [BatchLanes]int
	counts [BatchLanes][4]int                 // outcome counts of each game still running
	rec    [walkGateRounds][BatchLanes]uint16 // rec[r][l]: lane l's focal state after gate round r
	first  [BatchLanes]uint32                 // each lane's first revisit in the gate (see revisits16)
}

func (e *Engine) getLaneBuffers() *laneBuffers {
	if buf, ok := e.lanePool.Get().(*laneBuffers); ok {
		return buf
	}
	return new(laneBuffers)
}

func (e *Engine) putLaneBuffers(buf *laneBuffers) {
	buf.base, buf.lanes = nil, 0 // do not pin a strategy table in the pool
	e.lanePool.Put(buf)
}

// walksEnabled reports whether the engine routes eligible batch games
// through the gather lanes: KernelAuto past batchAutoMaxMemory, noiseless,
// with an integer-valued payoff matrix and more rounds than the gate, on a
// CPU with the kernel.
func (e *Engine) walksEnabled() bool {
	return useWalkLanes && e.kernel == KernelAuto && e.memSteps > batchAutoMaxMemory &&
		e.noise == 0 && e.intPayoff && e.rounds > walkGateRounds
}

// add puts game i, between the packed move tables wa and wb, on the next
// lane.  The kernel gathers straight from the tables, each addressed by
// its signed dword offset from buf.base (the first lane's focal table):
// every table is a live heap or static array the caller's players hold,
// and Go's collector does not move them.  add reports false, with nothing
// added, when a table lies too far from the base for a dword offset; that
// game takes the scalar path instead.
func (buf *laneBuffers) add(i int, wa, wb []uint64) bool {
	if buf.lanes == 0 {
		buf.base = &wa[0]
	}
	base := int64(uintptr(unsafe.Pointer(buf.base)))
	offA, okA := dwordOffset(base, int64(uintptr(unsafe.Pointer(&wa[0]))), len(wa))
	offB, okB := dwordOffset(base, int64(uintptr(unsafe.Pointer(&wb[0]))), len(wb))
	if !okA || !okB {
		return false
	}
	l := buf.lanes
	buf.lanes++
	buf.idx[l] = i
	buf.st.offA[l], buf.st.offB[l] = offA, offB
	return true
}

// dwordOffset returns the dword offset of a table of the given number of
// words at address table from address base, if every dword of the table
// is addressable as a signed 32-bit index from the base.
func dwordOffset(base, table int64, words int) (uint32, bool) {
	d := (table - base) / 4
	if d < math.MinInt32 || d > math.MaxInt32-2*int64(words) {
		return 0, false
	}
	return uint32(int32(d)), true
}

// playWalks is playChunk on the gather-lane route: it puts every pair with
// packed move tables on a lane and plays the rest through Play.
func (e *Engine) playWalks(as, bs []Player, srcs []*rng.Source, out []Result) error {
	buf := e.getLaneBuffers()
	defer e.putLaneBuffers(buf)
	// The kernel reads tables unchecked, so a table shorter than 4^n bits
	// stays off the lanes and takes Play, which bounds-checks every read.
	words := NumStates(e.memSteps) / 64
	for i, b := range bs {
		a := as[i]
		if a == nil || b == nil {
			return fmt.Errorf("game: batch game %d has a nil player", i)
		}
		if aw := e.laneWords(a); len(aw) >= words {
			if bw := e.laneWords(b); len(bw) >= words && buf.add(i, aw, bw) {
				continue
			}
		}
		var src *rng.Source
		if srcs != nil {
			src = srcs[i]
		}
		res, err := e.Play(a, b, src)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return e.finishWalks(buf, as, bs, out)
}

// finishWalks plays every game on the lanes, the gate and then the replay
// of the games the gate left running, and writes each game's totals to
// out.  as and bs are the chunk's players; fewer than minVectorLanes games
// take Play instead, before the gate or after it.
func (e *Engine) finishWalks(buf *laneBuffers, as, bs []Player, out []Result) error {
	n := buf.lanes
	if n < minVectorLanes {
		return e.playLanes(buf, n, as, bs, out)
	}
	st := &buf.st
	mask := uint32(NumStates(e.memSteps) - 1)
	clear(st.sA[:])
	clear(st.sB[:])
	clear(st.ctr[:])
	for l := n; l < BatchLanes; l++ {
		// Padding lanes walk lane 0's tables; their counts are never read.
		st.offA[l], st.offB[l] = st.offA[0], st.offB[0]
	}
	walk16(buf.base, st, groups(n), walkGateRounds, mask, &buf.rec[0][0])

	revisits16(&buf.rec[0][0], groups(n), walkGateRounds, &buf.first)

	open := 0
	for l := 0; l < n; l++ {
		if f := buf.first[l]; f != 0 {
			out[buf.idx[l]] = e.closeGate(buf, l, int(f&0xff), int(f>>8))
			continue
		}
		c := st.ctr[l]
		buf.counts[open] = [4]int{int(c & 0xff), int(c >> 8 & 0xff), int(c >> 16 & 0xff), int(c >> 24)}
		st.sA[open], st.sB[open] = st.sA[l], st.sB[l]
		st.offA[open], st.offB[open] = st.offA[l], st.offB[l]
		buf.idx[open] = buf.idx[l]
		open++
	}
	e.stats.cycleGames.Add(int64(n - open))
	if open < minVectorLanes {
		return e.playLanes(buf, open, as, bs, out)
	}
	for left := e.rounds - walkGateRounds; left > 0; left -= maxCounterRounds {
		clear(st.ctr[:])
		walk16(buf.base, st, groups(open), min(left, maxCounterRounds), mask, nil)
		for l, c := range st.ctr[:open] {
			k := &buf.counts[l]
			k[0] += int(c & 0xff)
			k[1] += int(c >> 8 & 0xff)
			k[2] += int(c >> 16 & 0xff)
			k[3] += int(c >> 24)
		}
	}
	for l := range buf.counts[:open] {
		out[buf.idx[l]] = e.countedResult(&buf.counts[l])
	}
	e.stats.vectorGames.Add(int64(open))
	return nil
}

// playLanes plays the games of lanes [0, n) one at a time through Play.
func (e *Engine) playLanes(buf *laneBuffers, n int, as, bs []Player, out []Result) error {
	for _, i := range buf.idx[:n] {
		res, err := e.Play(as[i], bs[i], nil)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

// groups returns the number of sixteen-lane groups that hold n lanes.
func groups(n int) int { return (n + laneGroup - 1) / laneGroup }

// closeGate returns the totals of lane l's game, whose walk entered at
// round r the state it first entered at round mu: the game repeats the
// cycle [mu, r) to its end, so its totals are the cycle kernel's
// prefix(mu) + k·cycle + tail, here in outcome counts.
func (e *Engine) closeGate(buf *laneBuffers, l, mu, r int) Result {
	reps, tail := (e.rounds-mu)/(r-mu), mu+(e.rounds-mu)%(r-mu)
	// c counts the outcomes of rounds [0, j); the outcome of round j is the
	// low bit pair of the state after it.
	var c, pre, post [4]int
	for j := 0; j < r; j++ {
		if j == mu {
			pre = c
		}
		if j == tail {
			post = c
		}
		c[buf.rec[j][l]&3]++
	}
	for k := range c {
		c[k] = pre[k] + reps*(c[k]-pre[k]) + (post[k] - pre[k])
	}
	return e.countedResult(&c)
}

// countedResult returns the totals of a game with k[c] rounds of outcome
// code c (CC, CD, DC, DD from the focal player's side): count × payoff,
// read back exactly as the SWAR kernel does.
func (e *Engine) countedResult(k *[4]int) Result {
	t := e.table
	cc, cd, dc, dd := float64(k[0]), float64(k[1]), float64(k[2]), float64(k[3])
	return Result{
		FitnessA:      cc*t[0] + cd*t[1] + dc*t[2] + dd*t[3],
		FitnessB:      cc*t[0] + cd*t[2] + dc*t[1] + dd*t[3],
		CooperationsA: k[0] + k[1],
		CooperationsB: k[0] + k[2],
		Rounds:        e.rounds,
	}
}
