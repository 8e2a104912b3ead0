package fitness

import (
	"sync"
	"sync/atomic"
)

// coldPair is a stored pair whose result has left the probed table: its
// canonical key and its record, 32 bytes like the pairSlot it came from.
type coldPair struct {
	key uint64
	pairRecord
}

// coldChunkLen is the number of records in one chunk of a cold log (8 KiB).
const coldChunkLen = 256

// coldLog is a shard's cold pairs: records in fixed-size chunks, so that
// growing the log never copies the records it holds, and an
// open-addressing index over their keys, so that a pair is found without
// a scan.  The index is built by the first find and kept from then on, so
// a log nothing is ever looked up in costs neither its memory nor its
// upkeep.  Below memory three a log serves the extinct strategies that
// re-enter, which is common there, and distributed SSet ranks sharing one
// store also promote the pairs a leading rank demoted before a lagging
// rank entered them.  From memory three up a store retires extinct IDs
// instead (see runClock), and only a store shared across runs keeps a
// log, for the pairs among the initial tables' pinned IDs.  It is guarded
// by its shard's mutex.
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

// idLiveness is one ID's cold standing in a store.  Whether a table holds
// the ID is the registry's (see intern.Registry.Held).
type idLiveness struct {
	// coldRefs counts the store's cold pairs with the ID as an endpoint
	// (a self pair once).
	coldRefs atomic.Int32
}

// livenessChunkLen is the number of IDs in one chunk of a liveness table.
const livenessChunkLen = 1024

// liveness is a store's idLiveness per ID, in chunks that never move, so
// that a reader holding any published directory reads current counts
// without a lock.  A store that retires IDs demotes only pairs of pinned
// IDs, so it makes chunks only up to the highest such ID.
type liveness struct {
	mu  sync.Mutex // serialises growth of dir; never held while taking a shard lock
	dir atomic.Pointer[[]*[livenessChunkLen]idLiveness]
}

// get returns id's entry, or nil when none has been made: no cold pair
// has named id.
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

// coldRefs returns the number of cold pairs naming id.
func (l *liveness) coldRefs(id uint32) int32 {
	if e := l.get(id); e != nil {
		return e.coldRefs.Load()
	}
	return 0
}

// addColdRefs adds d to the cold-pair counts of a and b.
func (l *liveness) addColdRefs(a, b uint32, d int32) {
	l.at(a).coldRefs.Add(d)
	if b != a {
		l.at(b).coldRefs.Add(d)
	}
}

// mayGoCold reports whether the pair (a, b) may leave the hot table: both
// endpoints were held by some table and one of them is held by none.  A
// pair of an ID no table ever held stays hot, so a store used without an
// evaluator never demotes.
func (st *pairStore) mayGoCold(a, b uint32) bool {
	ha, hb := st.reg.Held(a), st.reg.Held(b)
	return ha != 0 && hb != 0 && (ha == 1 || hb == 1)
}

// demote reports whether the pair (a, b) goes cold, counting it in both
// endpoints' cold references when it does.  The references are raised
// before the held counts are read again, and a table holds an ID before
// its evaluator reads the references (see bringBack), so an endpoint
// taken up concurrently either keeps the pair hot here or sees the
// reference and promotes it.
func (st *pairStore) demote(a, b uint32) bool {
	if !st.mayGoCold(a, b) {
		return false
	}
	st.live.addColdRefs(a, b, 1)
	if !st.mayGoCold(a, b) {
		st.live.addColdRefs(a, b, -1)
		return false
	}
	return true
}

// bringBack moves every cold pair of the IDs a table has just taken up
// (ids, which it holds already) with a partner, one of the IDs that table
// holds, back to its shard's hot table, before the table's lookups look
// for it there.  That holds also for an ID another table holds already:
// the table that brought it back may still be promoting its pairs.  The
// IDs' cold references say whether there is anything to promote.
func (st *pairStore) bringBack(ids, partners []uint32) {
	for _, id := range ids {
		if st.live.coldRefs(id) > 0 {
			st.promote(id, partners)
		}
	}
}

// promote moves the cold pair of x with each partner, where there is one,
// back to its shard's hot table.  The caller holds x and every partner, so
// no such pair goes cold meanwhile, and a partner no cold pair names is
// skipped without a lock.
func (st *pairStore) promote(x uint32, partners []uint32) {
	for _, p := range partners {
		if st.live.coldRefs(p) == 0 {
			continue
		}
		sh, tag, h, _ := st.locate(x, p)
		sh.mu.Lock()
		if i, ok := sh.cold.find(tag - 1); ok {
			c := sh.cold.remove(i)
			st.live.addColdRefs(x, p, -1)
			sh.grow(st).put(tag, h, c.pairRecord)
			sh.pairs++
		}
		sh.mu.Unlock()
	}
}
