package fitness

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"evogame/internal/game"
	"evogame/internal/intern"
)

// maxCacheBytes sets the budget of a PairCache's memoized results.  The
// budget counts stored ordered entries, hot and cold alike, at a nominal
// 64 bytes each (see NewPairCache); what a stored pair actually occupies
// is a 48-byte slot while it is hot and a 32-byte record once cold.  Long
// runs with high mutation rates generate an unbounded stream of distinct
// strategies; once a shard reaches its slice of the budget, a bounded
// fraction of its entries is evicted (see cacheShard.evict), which at
// worst replays pairs that are still live — results are pure functions of
// the pair, so correctness is unaffected.
const maxCacheBytes = 64 << 20

// numShards is the number of independently locked segments of the pair
// store.  A pair is stored once under its canonical key, so both
// orientations of a pair live in the same shard.
const numShards = 64

// evictDivisor is the fraction of a full shard evicted in one pass (one
// quarter), so an overflow sheds bounded weight instead of discarding every
// hot pair at once.
const evictDivisor = 4

// minTableSlots is the slot count of a shard's first table.
const minTableSlots = 8

// pairSlot is one open-addressing slot.  tag is the canonical key plus one
// (0 marks an empty slot; IDs stay below math.MaxUint32, so the tag never
// wraps).  res is written before tag is published and never changed
// afterwards, so a reader that observes the tag may copy res without a lock.
type pairSlot struct {
	tag atomic.Uint64
	res game.Result
}

// pairTable is a linear-probing table of canonical pair results.  Its
// length is a power of two and it always keeps an empty slot, so every
// probe terminates.
type pairTable struct {
	slots []pairSlot
	mask  uint64
}

func newPairTable(n int) *pairTable {
	return &pairTable{slots: make([]pairSlot, n), mask: uint64(n - 1)}
}

// find probes for tag starting at the slot h selects and returns its slot,
// or nil.  Safe without a lock: slots are only ever filled, never modified.
func (t *pairTable) find(tag, h uint64) *pairSlot {
	for i := h >> 6 & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		switch s.tag.Load() {
		case tag:
			return s
		case 0:
			return nil
		}
	}
}

// put fills the first empty slot of tag's probe sequence, publishing the
// result before the tag.  Called with the shard's lock held, for a tag not
// yet in the table.
func (t *pairTable) put(tag, h uint64, res game.Result) {
	for i := h >> 6 & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.tag.Load() == 0 {
			s.res = res
			s.tag.Store(tag)
			return
		}
	}
}

// cacheShard is one segment of the pair store: a hot table that lookups
// probe and a cold log they never read.  Reads load the table pointer and
// probe it without taking any lock; writes (misses) hold mu, fill an empty
// slot of the current table or publish a rebuilt one.  A new table is
// private until its pointer is published, so readers of the old one keep
// seeing valid entries meanwhile.
type cacheShard struct {
	table atomic.Pointer[pairTable]

	mu    sync.Mutex
	pairs int     // canonical entries in table; guarded by mu
	cold  coldLog // guarded by mu
	n     int     // ordered entries hot and cold, 2 per pair and 1 per self pair; guarded by mu
}

// weight is the number of ordered pairs a canonical key stands for.
func weight(key uint64) int {
	if key>>32 == key&0xFFFFFFFF {
		return 1
	}
	return 2
}

// evict removes roughly a quarter of the shard's ordered entries, whole
// pairs at a time, hot and cold alike.  Victims are the numerically
// smallest canonical keys — interned IDs are dense and issued in
// first-seen order, so low keys belong to the oldest strategies, the ones
// most likely extinct — selected by sorting so that which pairs later
// replay (and therefore the reported play counts) stays deterministic for
// a given seed, wherever liveness has put them.  A pair's canonical key is
// the smaller of its two ordered keys, so this drops the same pairs as
// walking the ordered keys in ascending order.  Called with mu held.
func (sh *cacheShard) evict(st *pairStore) int {
	quota := max(1, sh.n/evictDivisor)
	t := sh.table.Load()
	keys := make([]uint64, 0, sh.pairs+sh.cold.n)
	minHot := uint64(math.MaxUint64)
	for i := range t.slots {
		if tag := t.slots[i].tag.Load(); tag != 0 {
			keys = append(keys, tag-1)
			minHot = min(minHot, tag-1)
		}
	}
	for i := 0; i < sh.cold.n; i++ {
		keys = append(keys, sh.cold.at(i).key)
	}
	slices.Sort(keys)
	removed, cut := 0, 0
	for removed < quota && cut < len(keys) {
		removed += weight(keys[cut])
		cut++
	}
	if cut == 0 {
		return 0
	}
	floor := keys[cut-1]
	if minHot <= floor {
		nt, hot := newPairTable(len(t.slots)), 0
		for i := range t.slots {
			s := &t.slots[i]
			if tag := s.tag.Load(); tag > floor+1 {
				nt.put(tag, pairHash(tag-1), s.res)
				hot++
			}
		}
		sh.table.Store(nt)
		sh.pairs = hot
	}
	kept := 0
	for i := 0; i < sh.cold.n; i++ {
		p := sh.cold.at(i)
		if p.key <= floor {
			st.live.addColdRefs(uint32(p.key>>32), uint32(p.key), -1)
			continue
		}
		*sh.cold.at(kept) = *p
		kept++
	}
	sh.cold.truncate(kept)
	sh.n -= removed
	return removed
}

// grow returns the shard's hot table with room for one more pair.  Once
// that pair would take the table past 3/4 occupancy the shard compacts:
// each pair with a retired endpoint is dropped, each pair that may go cold
// (see pairStore.mayGoCold) moves to the cold log — in a store that
// retires IDs, only a pair of two pinned IDs (see runClock) — and the
// pairs left go into the smallest table they fill at most half of, so the
// table doubles only when they need it.  Called with mu held.
func (sh *cacheShard) grow(st *pairStore) *pairTable {
	t := sh.table.Load()
	if 4*(sh.pairs+1) <= 3*len(t.slots) {
		return t
	}
	keep := make([]uint64, (len(t.slots)+63)/64)
	live := 0
	for i := range t.slots {
		s := &t.slots[i]
		tag := s.tag.Load()
		if tag == 0 {
			continue
		}
		key := tag - 1
		a, b := uint32(key>>32), uint32(key)
		if st.retires && (st.reg.Held(a) < 0 || st.reg.Held(b) < 0) {
			sh.n -= weight(key)
			continue
		}
		if (!st.retires || st.reg.Pinned(a) && st.reg.Pinned(b)) && st.demote(a, b) {
			sh.cold.push(newColdPair(key, s.res))
			continue
		}
		keep[i/64] |= 1 << (i % 64)
		live++
	}
	n := minTableSlots
	for 2*(live+1) > n {
		n *= 2
	}
	nt := newPairTable(n)
	for i := range t.slots {
		if keep[i/64]&(1<<(i%64)) != 0 {
			s := &t.slots[i]
			tag := s.tag.Load()
			nt.put(tag, pairHash(tag-1), s.res)
		}
	}
	sh.table.Store(nt)
	sh.pairs = live
	return nt
}

// pairHash mixes a canonical key.  Its low bits pick the shard and the
// bits above them the first probe slot.
func pairHash(key uint64) uint64 {
	h := key
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// pairStore is the shareable state behind one or more PairCache views: the
// sharded result table, the interning registry issuing the dense IDs the
// table is keyed by, the cold references of every ID, and the game
// identity every memoized result belongs to.  All of it is safe for
// concurrent use — shard reads are lock-free, shard writes take the
// shard's mutex, cold references are atomics and the registry locks
// internally — so independent runs (ensemble replicates) may warm a single
// store concurrently through their own views.
//
// Each shard keeps hot only the pairs that may be looked up.  An
// evaluator's table holds the IDs its SSets hold in the registry (see
// intern.Table); a pair whose endpoints were both held and one of which no
// table holds any more stays hot until its shard next compacts (see
// cacheShard.grow).  Below memory RetireFrom it then moves to the shard's
// cold log, and a table taking up an ID brings the ID's cold pairs with
// the IDs it holds back (see bringBack) before it looks anything up.  From
// memory RetireFrom up the run retires an ID once no table of it can look
// the ID up again (see runClock), and compaction drops the pairs of
// retired IDs; only a pair of two pinned IDs, which a later run may look
// up, goes cold.  Lookups therefore probe only the hot table, and a pair
// whose endpoints are both held is never cold or dropped.  A pair of an
// ID no table ever held stays hot, so a store driven without an evaluator
// keeps every pair hot.
type pairStore struct {
	gameID      string
	memorySteps int
	rounds      int // every memoized result's Rounds
	maxPerShard int
	reg         *intern.Registry
	live        liveness
	// retires is set from memory RetireFrom up: IDs no table holds are
	// retired (see runClock) and their pairs dropped, and only pairs of
	// two pinned IDs go cold.
	retires bool

	// highWater is the largest entry count any shard has reached.  It is
	// raised under the shard's lock in record and never lowered, so once a
	// store has come near its budget it stays marked as such (see
	// PairCache.headroom).
	highWater atomic.Int64

	shards [numShards]cacheShard
}

// raiseHighWater lifts the store's high-water mark to n if n exceeds it.
func (st *pairStore) raiseHighWater(n int) {
	for {
		hw := st.highWater.Load()
		if int64(n) <= hw || st.highWater.CompareAndSwap(hw, int64(n)) {
			return
		}
	}
}

// locate maps an ID pair to its canonical entry: the pair's shard, its
// slot tag (the unordered key lo<<32|hi, plus one), the key's hash, and
// whether (a, b) is the reversed orientation of the stored result.  Both
// orientations of a pair share one shard and one entry.
func (st *pairStore) locate(a, b uint32) (sh *cacheShard, tag, h uint64, swapped bool) {
	key := uint64(a)<<32 | uint64(b)
	if a > b {
		key, swapped = uint64(b)<<32|uint64(a), true
	}
	h = pairHash(key)
	return &st.shards[h&(numShards-1)], key + 1, h, swapped
}

// compatible reports whether results memoized in this store are valid for
// games played by eng.  The game ID covers the payoff spec and round count;
// memory depth is checked separately because the ID does not encode it, and
// noise must be zero because noisy results are not pure functions of the
// pair.  Kernel mode deliberately does not participate: every kernel is
// bit-identical on the deterministic noiseless path, so views over the same
// store may mix them.
func (st *pairStore) compatible(eng *game.Engine) error {
	if eng == nil {
		return fmt.Errorf("fitness: nil engine")
	}
	if eng.Noise() > 0 {
		return fmt.Errorf("fitness: shared cache requires a noiseless engine, got noise=%v", eng.Noise())
	}
	if got := eng.GameID(); got != st.gameID {
		return fmt.Errorf("fitness: shared cache is bound to game %q, engine plays %q", st.gameID, got)
	}
	if got := eng.MemorySteps(); got != st.memorySteps {
		return fmt.Errorf("fitness: shared cache is bound to memory-%d strategies, engine expects memory-%d", st.memorySteps, got)
	}
	return nil
}

// PairCache memoizes game results per distinct strategy pair, keyed by the
// dense IDs of an intern.Registry rather than encoded strategy strings, so
// the hot lookup path is integer arithmetic with no allocations.  The store
// is sharded by unordered ID pair and holds one entry per pair: hits take no
// lock and write no shared word, and the counters are per-view atomics, so
// concurrent workers and replicates do not serialise on each other.  Only
// pairs of live IDs are probed (see pairStore): a caller must look up only
// pairs of IDs its Evaluator's table holds, or of IDs no table has ever
// entered, which every store used without an evaluator does.
// Results are pure functions of the pair; racing workers at worst replay a
// pair once each and store the identical result (one miss, keeping the
// play counter deterministic for a given seed, and a hit for every other
// racer).
//
// A PairCache is a view: the result table and registry live in a pairStore
// that additional views may share (see NewView), while the engine used to
// play misses and the hit/miss/eviction counters are per view.  A solo run
// owns a private store; ensemble replicates each hold their own view over
// one shared store, so kernel statistics and cache counters stay attributed
// to the run that incurred them while results warmed by any replicate serve
// all of them.
type PairCache struct {
	eng   *game.Engine
	store *pairStore
	// run is the clock of the run whose evaluators play through the view
	// (see ForRun), nil for a view no run owns.
	run *runClock

	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
}

// NewPairCache returns an empty cache bound to the given engine, with a
// fresh strategy-interning registry (see Interner) and a private store.
func NewPairCache(eng *game.Engine) (*PairCache, error) {
	if eng == nil {
		return nil, fmt.Errorf("fitness: nil engine")
	}
	if uint64(eng.Rounds()) > math.MaxUint32 {
		return nil, fmt.Errorf("fitness: %d rounds overflow a cold pair's cooperation counts", eng.Rounds())
	}
	// The per-shard budget counts ordered entries at 64 bytes each; it
	// fixes the moments eviction fires, and with them the play counts of
	// runs that overflow it.
	const entryBytes = 64
	maxPerShard := maxCacheBytes / entryBytes / numShards
	if maxPerShard < 64 {
		maxPerShard = 64
	}
	st := &pairStore{
		gameID:      eng.GameID(),
		memorySteps: eng.MemorySteps(),
		rounds:      eng.Rounds(),
		maxPerShard: maxPerShard,
		reg:         intern.NewRegistry(),
		retires:     eng.MemorySteps() >= RetireFrom,
	}
	for i := range st.shards {
		st.shards[i].table.Store(newPairTable(minTableSlots))
	}
	return &PairCache{eng: eng, store: st}, nil
}

// NewView returns a fresh view over this cache's underlying store, bound to
// the given engine: lookups hit the same memoized results and the same
// interning registry, but misses are played through eng (so its kernel
// statistics account for them) and the new view's counters start at zero.
// The engine must play the identical deterministic game — same game ID,
// same memory depth, noiseless — or an error is returned; results from a
// different game must never be served across views.
func (c *PairCache) NewView(eng *game.Engine) (*PairCache, error) {
	if err := c.store.compatible(eng); err != nil {
		return nil, err
	}
	return &PairCache{eng: eng, store: c.store, run: c.run}, nil
}

// ForRun returns a view over c's store for the evaluators of one run, of
// which there are members: one per SSet rank of a distributed run, one
// for a serial run.  The run's evaluators advance one generation clock
// (see Evaluator.EndGeneration), from which the store learns when an ID
// none of them holds may be retired.  acrossRuns reports that other runs
// share the store, so the IDs the run's initial table interns are never
// retired.  A nil c gives nil.
func (c *PairCache) ForRun(members int, acrossRuns bool) *PairCache {
	if c == nil {
		return nil
	}
	return &PairCache{eng: c.eng, store: c.store, run: newRunClock(c.store, members, acrossRuns)}
}

// Interner returns the registry issuing the dense strategy IDs PlayID
// accepts.  Engines intern their strategy tables through it once per
// strategy-change event, so the per-game path never touches the codec.
// Views over one store share one registry, so an ID issued to any view is
// valid in all of them.
func (c *PairCache) Interner() *intern.Registry { return c.store.reg }

// DeltaExact reports whether the IncrementalMatrix's delta updates are
// bit-exact for the engine's game: with an integer-valued payoff matrix
// every fitness sum is an exactly-representable integer, so subtracting and
// re-adding pair payoffs reproduces a fresh evaluation bit for bit.
// NewEvaluator downgrades EvalIncremental to EvalCached when this fails (for
// example a generic 2x2 game with fractional payoffs), preserving the
// all-modes-identical guarantee.
func DeltaExact(eng *game.Engine) bool {
	return eng != nil && eng.Payoff().IntegerValued()
}

// swap returns the result seen from the opposite side of the board.
func swap(r game.Result) game.Result {
	return game.Result{
		FitnessA:      r.FitnessB,
		FitnessB:      r.FitnessA,
		CooperationsA: r.CooperationsB,
		CooperationsB: r.CooperationsA,
		Rounds:        r.Rounds,
	}
}

// lookup serves the ordered pair (a, b) from the store into *dst without
// taking a lock: it loads the shard's current table and probes it.  A
// reader racing a rebuild may probe the table just replaced; its entries
// are all still valid, and a pair it lacks falls through to the locked
// re-check in record.
func (c *PairCache) lookup(a, b uint32, dst *game.Result) bool {
	sh, tag, h, swapped := c.store.locate(a, b)
	s := sh.table.Load().find(tag, h)
	if s == nil {
		return false
	}
	if swapped {
		*dst = swap(s.res)
	} else {
		*dst = s.res
	}
	return true
}

// record stores res, the freshly played result of (a, b), unless a racing
// call stored the pair first, and returns the stored result oriented as
// (a, b).  Only the call that stores the pair counts a miss; a call that
// finds the pair stored meanwhile — by another view or worker racing on
// it, replaying the identical game — counts a hit, as its lookup would
// have had it come a moment later.  Every lookup but a chunk duplicate
// (see PlayIDBatch) thus counts one hit or one miss, whichever view
// reaches the pair first.
func (c *PairCache) record(a, b uint32, res game.Result) game.Result {
	sh, tag, h, swapped := c.store.locate(a, b)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	t := sh.table.Load()
	if s := t.find(tag, h); s != nil {
		c.hits.Add(1)
		if swapped {
			return swap(s.res)
		}
		return s.res
	}
	c.misses.Add(1)
	if sh.n >= c.store.maxPerShard {
		c.evicted.Add(int64(sh.evict(c.store)))
	}
	canon := res
	if swapped {
		canon = swap(res)
	}
	sh.grow(c.store).put(tag, h, canon)
	sh.pairs++
	sh.n += weight(tag - 1)
	c.store.raiseHighWater(sh.n)
	return res
}

// headroom reports whether k more pairs can be recorded without eviction
// firing: each adds at most two ordered entries to one shard, and no shard
// has ever held more than the high-water mark.  While it holds, the order
// in which a call looks its pairs up cannot change which pairs are stored,
// and so cannot change any later miss or eviction.
func (c *PairCache) headroom(k int) bool {
	return c.store.highWater.Load()+2*int64(k) < int64(c.store.maxPerShard)
}

// PlayID returns the result of a game between the strategies behind the
// given interned IDs (issued by this cache's Interner).  The pair is played
// at most once and served from memory afterwards, in either orientation.
// The hit path performs no allocations and takes no lock.
func (c *PairCache) PlayID(a, b uint32) (game.Result, error) {
	var res game.Result
	if c.lookup(a, b, &res) {
		c.hits.Add(1)
		return res, nil
	}
	sa, err := c.store.reg.Strategy(a)
	if err != nil {
		return game.Result{}, fmt.Errorf("fitness: %w", err)
	}
	sb, err := c.store.reg.Strategy(b)
	if err != nil {
		return game.Result{}, fmt.Errorf("fitness: %w", err)
	}
	// Deterministic, noiseless game: no source needed.  Played outside the
	// lock so concurrent workers are not serialised on the kernel.
	if res, err = c.eng.Play(sa, sb, nil); err != nil {
		return game.Result{}, err
	}
	return c.record(a, b, res), nil
}

// PlayIDBatch fills out[i] with the result of the game between the
// strategies behind IDs a and bs[i], for every i.  Results, the games
// actually executed and the stored entries are identical to calling
// PlayID(a, bs[i]) in index order, but bs is taken in chunks of
// game.BatchLanes whose misses are deduplicated (in first-encounter order)
// and played through the engine's batch kernel in one call instead of one
// by one.  (A duplicate of an uncached ID within one chunk joins the batch
// probe instead of counting as a hit, so only the hit counter can differ
// from the serial sequence.)  Neither hits nor misses allocate.
func (c *PairCache) PlayIDBatch(a uint32, bs []uint32, out []game.Result) error {
	if len(out) != len(bs) {
		return fmt.Errorf("fitness: PlayIDBatch result slice has %d entries for %d opponents", len(out), len(bs))
	}
	for lo := 0; lo < len(bs); lo += game.BatchLanes {
		hi := min(lo+game.BatchLanes, len(bs))
		if err := c.playIDChunk(a, bs[lo:hi], out[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// playIDChunk is PlayIDBatch over at most game.BatchLanes opponents, with
// its miss bookkeeping in fixed-size arrays.
func (c *PairCache) playIDChunk(a uint32, bs []uint32, out []game.Result) error {
	var (
		missIdx [game.BatchLanes]uint8 // index into bs of each miss
		lane    [game.BatchLanes]uint8 // index into order of each miss
		order   [game.BatchLanes]uint32
		players [game.BatchLanes]game.Player
		results [game.BatchLanes]game.Result
	)
	misses := 0
	for i, b := range bs {
		if !c.lookup(a, b, &out[i]) {
			missIdx[misses] = uint8(i)
			misses++
		}
	}
	if hits := len(bs) - misses; hits > 0 {
		c.hits.Add(int64(hits))
	}
	if misses == 0 {
		return nil
	}

	sa, err := c.store.reg.Strategy(a)
	if err != nil {
		return fmt.Errorf("fitness: %w", err)
	}
	n := 0
	for m := 0; m < misses; m++ {
		b := bs[missIdx[m]]
		k := 0
		for k < n && order[k] != b {
			k++
		}
		if k == n {
			if players[n], err = c.store.reg.Strategy(b); err != nil {
				return fmt.Errorf("fitness: %w", err)
			}
			order[n] = b
			n++
		}
		lane[m] = uint8(k)
	}
	// Deterministic, noiseless games: no sources needed.  Played outside the
	// locks so concurrent workers are not serialised on the kernel.
	if err := c.eng.PlayBatch(sa, players[:n], nil, results[:n]); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		results[k] = c.record(a, order[k], results[k])
	}
	for m := 0; m < misses; m++ {
		out[missIdx[m]] = results[lane[m]]
	}
	return nil
}

// Hits returns the number of lookups served from memory.
func (c *PairCache) Hits() int64 { return c.hits.Load() }

// Misses returns the number of cacheable lookups that executed the game
// kernel and stored its result: the games actually played through this
// cache, which the engines report as "games played".
func (c *PairCache) Misses() int64 { return c.misses.Load() }

// Evicted returns the number of memoized entries this view dropped by
// bounded eviction after a shard reached its memory budget.
func (c *PairCache) Evicted() int64 { return c.evicted.Load() }
