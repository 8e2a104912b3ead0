package intern

import (
	"fmt"

	"evogame/internal/strategy"
)

// Table is a population's strategy table over one registry: for every SSet
// the interned ID of its strategy and the registry's canonical instance
// behind it, the number of SSets holding each ID and the lowest of them,
// and the list of IDs held by at least one SSet.  It is the one record an
// engine keeps of which strategy each SSet holds.
//
// Strategies are immutable once constructed, so the table stores the
// registry's canonical instances, never the caller's values: a caller that
// later modifies a value it passed in changes nothing here.  Set interns
// once; Adopt copies an ID and a pointer and encodes nothing.
//
// The table holds every ID one of its SSets holds in the registry (see
// Registry.Hold), from interning it until no SSet holds it, so the
// registry never retires an ID under it; Release drops those holds when
// the table is finished.
//
// A Table is not safe for concurrent use.
type Table struct {
	reg     *Registry
	ids     []uint32            // ids[i]: ID of SSet i's strategy
	strats  []strategy.Strategy // strats[i]: the canonical instance behind ids[i]
	byID    Pages[tableEntry]   // byID[id]: id's entry while count > 0
	present []uint32            // IDs with count > 0, in no particular order
}

// tableEntry is a Table's state for one ID.
type tableEntry struct {
	count int32             // SSets holding the ID
	pos   int32             // index of the ID in present while count > 0
	first int32             // lowest SSet index holding the ID while count > 0
	canon strategy.Strategy // the canonical instance behind the ID while count > 0
}

// Change describes one Set or Adopt so that a caller keeping one column
// per present ID can follow it: read Old's column at OldPos, move the last
// column into Vacated when Vacated ≥ 0, append a column when Added, then
// find New's column at NewPos.  A change to the ID the SSet already holds
// is reported the same way.
type Change struct {
	Old, New uint32
	// OldPos is Old's position in Present before the change.
	OldPos int
	// Vacated is the position Old left when no SSet holds it any more, now
	// filled by the last present ID, or -1 while Old stays present.
	Vacated int
	// Added reports that New became present, at the end of Present.
	Added bool
	// NewPos is New's position in Present after the change.
	NewPos int
}

// NewTable interns every entry of initial into reg, in order, and returns
// the table holding them.  It fails, naming the entry, on a nil entry or
// one the strategy codec cannot encode.
func NewTable(reg *Registry, initial []strategy.Strategy) (*Table, error) {
	if reg == nil {
		return nil, fmt.Errorf("intern: nil registry")
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("intern: empty strategy table")
	}
	t := &Table{
		reg:    reg,
		ids:    make([]uint32, len(initial)),
		strats: make([]strategy.Strategy, len(initial)),
		byID:   NewPages[tableEntry](reg),
	}
	for i, s := range initial {
		id, canon, err := reg.intern(s, true)
		if err != nil {
			t.Release()
			return nil, fmt.Errorf("intern: binding table entry %d: %w", i, err)
		}
		t.ids[i], t.strats[i] = id, canon
		if !t.add(id, canon, i) {
			reg.Drop(id)
		}
	}
	return t, nil
}

// Release drops the table's hold on every ID its SSets hold, so that the
// registry may retire them.  Call it once, when the table is finished, and
// change the table no more.
func (t *Table) Release() {
	for _, id := range t.present {
		t.reg.Drop(id)
	}
}

// Len returns the number of SSets.
func (t *Table) Len() int { return len(t.ids) }

// ID returns the ID of SSet i's strategy.
func (t *Table) ID(i int) uint32 { return t.ids[i] }

// IDs returns the ID of every SSet's strategy, indexed by SSet.  The slice
// stays current across changes and must not be modified.
func (t *Table) IDs() []uint32 { return t.ids }

// Get returns SSet i's strategy, the registry's canonical instance; it must
// not be modified.
func (t *Table) Get(i int) strategy.Strategy { return t.strats[i] }

// Strategies returns a fresh slice of every SSet's strategy, which later
// changes to the table leave as it is.
func (t *Table) Strategies() []strategy.Strategy {
	return append([]strategy.Strategy(nil), t.strats...)
}

// Strategy returns the canonical strategy behind id, which must be
// present.
func (t *Table) Strategy(id uint32) strategy.Strategy { return t.byID.Get(id).canon }

// Present returns the IDs held by at least one SSet.  The slice changes
// with the table and must not be modified.
func (t *Table) Present() []uint32 { return t.present }

// Count returns the number of SSets holding id.
func (t *Table) Count(id uint32) int { return int(t.byID.Get(id).count) }

// Pos returns the position of id in Present; id must be present.
func (t *Table) Pos(id uint32) int { return int(t.byID.Get(id).pos) }

// First returns the lowest SSet index holding id, which must be present.
func (t *Table) First(id uint32) int { return int(t.byID.Get(id).first) }

// CountOf returns the number of SSets holding a strategy equal to s.  It
// compares s with the present strategies and never interns it: an ID
// issued here would renumber every strategy interned after it.
func (t *Table) CountOf(s strategy.Strategy) int {
	for _, id := range t.present {
		if t.Strategy(id).Equal(s) {
			return t.Count(id)
		}
	}
	return 0
}

// Set makes SSet i hold s, interning it once.
func (t *Table) Set(i int, s strategy.Strategy) (Change, error) {
	if i < 0 || i >= len(t.ids) {
		return Change{}, fmt.Errorf("intern: SSet index %d out of range [0,%d)", i, len(t.ids))
	}
	id, canon, err := t.reg.intern(s, true)
	if err != nil {
		return Change{}, err
	}
	return t.move(i, id, canon), nil
}

// Adopt makes SSet learner hold SSet teacher's strategy.
func (t *Table) Adopt(learner, teacher int) (Change, error) {
	if n := len(t.ids); learner < 0 || learner >= n || teacher < 0 || teacher >= n {
		return Change{}, fmt.Errorf("intern: adoption %d <- %d outside table of %d SSets", learner, teacher, n)
	}
	t.reg.Hold(t.ids[teacher])
	return t.move(learner, t.ids[teacher], t.strats[teacher]), nil
}

// move points SSet i at id, whose canonical instance is canon.  The caller
// has taken a hold on id, which keeps it live across the move even when
// SSet i was the last holder of the same ID; move keeps that hold as the
// table's when id is newly present and drops it otherwise.
func (t *Table) move(i int, id uint32, canon strategy.Strategy) Change {
	old := t.ids[i]
	ch := Change{Old: old, New: id, OldPos: t.Pos(old), Vacated: t.remove(old, i)}
	if ch.Added = t.add(id, canon, i); !ch.Added {
		t.reg.Drop(id)
	}
	ch.NewPos = t.Pos(id)
	t.ids[i], t.strats[i] = id, canon
	return ch
}

// add counts SSet i as one more holder of id, whose canonical instance is
// canon, and reports whether id is newly present (appended to present).
// The caller holds id in the registry.
func (t *Table) add(id uint32, canon strategy.Strategy, i int) bool {
	e := t.byID.At(id)
	if e.count++; e.count > 1 {
		e.first = min(e.first, int32(i))
		return false
	}
	e.pos, e.first, e.canon = int32(len(t.present)), int32(i), canon
	t.present = append(t.present, id)
	return true
}

// remove counts SSet i, which holds id, as one holder fewer.  When none is
// left, id leaves present by swap-remove and the table drops its hold: it
// returns the position id vacated, which the last entry now fills, or -1
// while id is still present.  When SSet i was id's first holder and others
// remain, the next holder is found by a forward scan.
func (t *Table) remove(id uint32, i int) int {
	e := t.byID.At(id)
	if e.count--; e.count > 0 {
		if int(e.first) == i {
			j := i + 1
			for t.ids[j] != id {
				j++
			}
			e.first = int32(j)
		}
		return -1
	}
	p, last := e.pos, t.present[len(t.present)-1]
	t.present[p], t.byID.At(last).pos = last, p
	e.canon = nil
	t.present = t.present[:len(t.present)-1]
	t.reg.Drop(id)
	return int(p)
}

// Pages is a dense array of per-ID values kept beside a registry's IDs, in
// pages of pageLen IDs.  A page is made by the first At of one of its IDs,
// and pages whose IDs the registry has all retired are freed whenever a
// new page is made, so the array takes memory for the pages of live IDs,
// not for every ID issued.  Write only IDs some table holds: a retired
// ID's page may be gone.  The zero value holds nothing and frees nothing.
type Pages[T any] struct {
	reg *Registry
	dir []*[pageLen]T
}

// NewPages returns an empty array over reg's IDs.
func NewPages[T any](reg *Registry) Pages[T] { return Pages[T]{reg: reg} }

// Get returns id's value, the zero value if none has been written.
func (p *Pages[T]) Get(id uint32) T {
	if k := int(id / pageLen); k < len(p.dir) && p.dir[k] != nil {
		return p.dir[k][id%pageLen]
	}
	var zero T
	return zero
}

// At returns id's value for writing, making its page if needed.
func (p *Pages[T]) At(id uint32) *T {
	k := int(id / pageLen)
	if k < len(p.dir) && p.dir[k] != nil {
		return &p.dir[k][id%pageLen]
	}
	for k >= len(p.dir) {
		p.dir = append(p.dir, nil)
	}
	if p.reg != nil {
		for j, pg := range p.dir {
			if pg != nil && p.reg.pageFreed(j) {
				p.dir[j] = nil
			}
		}
	}
	p.dir[k] = new([pageLen]T)
	return &p.dir[k][id%pageLen]
}
