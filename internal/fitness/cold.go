package fitness

import (
	"sync"
	"sync/atomic"

	"evogame/internal/game"
)

// coldPair is a stored pair whose result has left the probed table: its
// canonical key and the canonical result without Rounds, which is the
// store's constant (the game ID covers it).  A game's cooperation counts
// never exceed its rounds, which NewPairCache bounds to 32 bits, so one
// record is 32 bytes where a pairSlot is 48.
type coldPair struct {
	key          uint64
	fitA, fitB   float64
	coopA, coopB uint32
}

func newColdPair(key uint64, r game.Result) coldPair {
	return coldPair{key: key, fitA: r.FitnessA, fitB: r.FitnessB, coopA: uint32(r.CooperationsA), coopB: uint32(r.CooperationsB)}
}

// result restores the canonical result of a game of the given rounds.
func (p *coldPair) result(rounds int) game.Result {
	return game.Result{FitnessA: p.fitA, FitnessB: p.fitB, CooperationsA: int(p.coopA), CooperationsB: int(p.coopB), Rounds: rounds}
}

// coldChunkLen is the number of records in one chunk of a cold log (8 KiB).
const coldChunkLen = 256

// coldLog is a shard's cold pairs: records in fixed-size chunks, so that
// growing the log never copies the records it holds, and an
// open-addressing index over their keys, so that a pair is found without
// a scan.  The index is built by the first find and kept from then on, so
// a log nothing is ever looked up in costs neither its memory nor its
// upkeep.  A single-table memory-six run is such a log: no strategy
// returns.  Distributed SSet ranks sharing one store are not, at any
// memory depth: ranks run up to a few generations apart, so a lagging rank
// can enter a short-lived mutant after the leading ranks have left it and
// demoted its pairs, and its promotion builds the index.  It is guarded by
// its shard's mutex.
type coldLog struct {
	chunks []*[coldChunkLen]coldPair
	n      int
	// index is nil until the first find, then holds 1 + the log position
	// of a record, 0 in an empty slot, at most 3/4 full and probed
	// linearly from the key's hash.
	index []uint32
}

func (l *coldLog) at(i int) *coldPair { return &l.chunks[i/coldChunkLen][i%coldChunkLen] }

// home returns the first index slot of key's probe sequence.
func (l *coldLog) home(key uint64) int { return int(pairHash(key)>>6) & (len(l.index) - 1) }

// slotOf returns the slot holding v (1 + a log position) in key's probe
// sequence, or the empty slot that ends it; v = 0 finds that empty slot.
// It compares index values only, never reading a record.
func (l *coldLog) slotOf(key uint64, v uint32) int {
	mask := len(l.index) - 1
	i := l.home(key)
	for l.index[i] != v && l.index[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// find returns the log position of key's record.
func (l *coldLog) find(key uint64) (int, bool) {
	if l.n == 0 {
		return 0, false
	}
	if l.index == nil {
		l.reindex()
	}
	mask := len(l.index) - 1
	for i := l.home(key); l.index[i] != 0; i = (i + 1) & mask {
		if pos := int(l.index[i]) - 1; l.at(pos).key == key {
			return pos, true
		}
	}
	return 0, false
}

func (l *coldLog) push(p coldPair) {
	if l.n == len(l.chunks)*coldChunkLen {
		l.chunks = append(l.chunks, new([coldChunkLen]coldPair))
	}
	*l.at(l.n) = p
	l.n++
	if l.index != nil {
		if 4*l.n > 3*len(l.index) {
			l.reindex()
		} else {
			l.index[l.slotOf(p.key, 0)] = uint32(l.n)
		}
	}
}

// remove removes the record at position i, moving the last record into
// its place and freeing the last chunk once it is empty.
func (l *coldLog) remove(i int) coldPair {
	p := *l.at(i)
	if l.index != nil {
		l.unindex(l.slotOf(p.key, uint32(i+1)))
	}
	l.n--
	if i != l.n {
		moved := *l.at(l.n)
		*l.at(i) = moved
		if l.index != nil {
			l.index[l.slotOf(moved.key, uint32(l.n+1))] = uint32(i + 1)
		}
	}
	if l.n%coldChunkLen == 0 {
		last := len(l.chunks) - 1
		l.chunks[last] = nil
		l.chunks = l.chunks[:last]
	}
	return p
}

// truncate keeps the first n records, freeing the chunks left empty, and
// drops the index for the next find to rebuild.
func (l *coldLog) truncate(n int) {
	l.n = n
	keep := (n + coldChunkLen - 1) / coldChunkLen
	clear(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	l.index = nil
}

// unindex empties index slot i, shifting later entries of its probe run
// back so that every key stays reachable from its home slot.
func (l *coldLog) unindex(i int) {
	mask := len(l.index) - 1
	for j := (i + 1) & mask; l.index[j] != 0; j = (j + 1) & mask {
		home := l.home(l.at(int(l.index[j] - 1)).key)
		// The entry at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-home)&mask >= (j-i)&mask {
			l.index[i] = l.index[j]
			i = j
		}
	}
	l.index[i] = 0
}

// reindex rebuilds the index over the log's records, at most half full.
func (l *coldLog) reindex() {
	n := 64
	for n < 2*l.n {
		n *= 2
	}
	l.index = make([]uint32, n)
	for i := 0; i < l.n; i++ {
		l.index[l.slotOf(l.at(i).key, 0)] = uint32(i + 1)
	}
}

// idLiveness is one ID's standing in a store.
type idLiveness struct {
	// held is 0 for an ID no table has entered, whose pairs never go cold,
	// and otherwise one more than the number of tables holding the ID: 1
	// means no table holds it any more.
	held atomic.Int32
	// coldRefs counts the store's cold pairs with the ID as an endpoint
	// (a self pair once).
	coldRefs atomic.Int32
}

// livenessChunkLen is the number of IDs in one chunk of a liveness table.
const livenessChunkLen = 1024

// liveness is a store's idLiveness per ID, in chunks that never move, so
// that a reader holding any published directory reads current counts
// without a lock.
type liveness struct {
	mu  sync.Mutex // serialises growth of dir; never held while taking a shard lock
	dir atomic.Pointer[[]*[livenessChunkLen]idLiveness]
}

// get returns id's entry, or nil when none has been made: no table has
// entered id and no cold pair names it.
func (l *liveness) get(id uint32) *idLiveness {
	d := l.dir.Load()
	if d == nil || int(id/livenessChunkLen) >= len(*d) {
		return nil
	}
	return &(*d)[id/livenessChunkLen][id%livenessChunkLen]
}

// at returns id's entry, making the chunks up to it if needed.
func (l *liveness) at(id uint32) *idLiveness {
	if e := l.get(id); e != nil {
		return e
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var d []*[livenessChunkLen]idLiveness
	if p := l.dir.Load(); p != nil {
		d = *p
	}
	for int(id/livenessChunkLen) >= len(d) {
		// Appending past len never writes an element a reader of the
		// published directory can index.
		d = append(d, new([livenessChunkLen]idLiveness))
	}
	l.dir.Store(&d)
	return &d[id/livenessChunkLen][id%livenessChunkLen]
}

// held returns id's held count as stored: 0 if no table ever entered it.
func (l *liveness) held(id uint32) int32 {
	if e := l.get(id); e != nil {
		return e.held.Load()
	}
	return 0
}

// mayGoCold reports whether the pair (a, b) may leave the hot table: both
// endpoints were entered by some table and one of them is held by none.
// A pair of an ID no table ever entered stays hot, so a store used
// without an evaluator never demotes.
func (l *liveness) mayGoCold(a, b uint32) bool {
	ha, hb := l.held(a), l.held(b)
	return ha != 0 && hb != 0 && (ha == 1 || hb == 1)
}

// addColdRefs adds d to the cold-pair counts of a and b.
func (l *liveness) addColdRefs(a, b uint32, d int32) {
	l.at(a).coldRefs.Add(d)
	if b != a {
		l.at(b).coldRefs.Add(d)
	}
}

// demote reports whether the pair (a, b) goes cold, counting it in both
// endpoints' cold references when it does.  The references are raised
// before liveness is read again, and enter raises liveness before it
// reads the references, so an endpoint entering concurrently either keeps
// the pair hot here or sees the reference and promotes it.
func (l *liveness) demote(a, b uint32) bool {
	if !l.mayGoCold(a, b) {
		return false
	}
	l.addColdRefs(a, b, 1)
	if !l.mayGoCold(a, b) {
		l.addColdRefs(a, b, -1)
		return false
	}
	return true
}

// enter counts one more table holding each of ids; partners are the IDs
// that table holds, ids among them.  Before enter returns, every cold
// pair of an entered ID with a partner moves back to its shard's hot
// table, so the table's lookups find it there.  That holds also for an
// ID another table holds already: the table that brought it back may
// still be promoting its pairs.  The entered IDs' cold references say
// whether there is anything to promote.  For a single table at memory six
// there never is; tables that share a store and lag one another promote
// at any memory depth (see coldLog).
func (st *pairStore) enter(ids, partners []uint32) {
	for _, id := range ids {
		e := st.live.at(id)
		for {
			v := e.held.Load()
			nv := v + 1
			if v == 0 {
				nv = 2
			}
			if e.held.CompareAndSwap(v, nv) {
				break
			}
		}
	}
	for _, id := range ids {
		if st.live.at(id).coldRefs.Load() > 0 {
			st.promote(id, partners)
		}
	}
}

// leave counts one table fewer holding id, which the table entered.  Its
// pairs stay where they are until their shard next compacts.
func (st *pairStore) leave(id uint32) {
	if st.live.at(id).held.Add(-1) < 1 {
		panic("fitness: a table left an ID it never entered")
	}
}

// promote moves the cold pair of x with each partner, where there is one,
// back to its shard's hot table.  The caller holds x and every partner, so
// no such pair goes cold meanwhile, and a partner no cold pair names is
// skipped without a lock.
func (st *pairStore) promote(x uint32, partners []uint32) {
	for _, p := range partners {
		if st.live.at(p).coldRefs.Load() == 0 {
			continue
		}
		sh, tag, h, _ := st.locate(x, p)
		sh.mu.Lock()
		if i, ok := sh.cold.find(tag - 1); ok {
			c := sh.cold.remove(i)
			st.live.addColdRefs(x, p, -1)
			sh.grow(st).put(tag, h, c.result(st.rounds))
			sh.pairs++
		}
		sh.mu.Unlock()
	}
}
