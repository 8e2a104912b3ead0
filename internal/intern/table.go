package intern

import (
	"fmt"

	"evogame/internal/strategy"
)

// Table is a population's strategy table over one registry: for every SSet
// the interned ID of its strategy and the registry's canonical instance
// behind it, the number of SSets holding each ID, and the list of IDs held
// by at least one SSet.  It is the one record an engine keeps of which
// strategy each SSet holds.
//
// Strategies are immutable once constructed, so the table stores the
// registry's canonical instances, never the caller's values: a caller that
// later modifies a value it passed in changes nothing here.  Set interns
// once; Adopt copies an ID and a pointer and encodes nothing.
//
// A Table is not safe for concurrent use.
type Table struct {
	reg     *Registry
	ids     []uint32            // ids[i]: ID of SSet i's strategy
	strats  []strategy.Strategy // strats[i]: the canonical instance behind ids[i]
	count   []int32             // count[id]: SSets holding id
	pos     []int32             // pos[id]: index of id in present while count[id] > 0
	present []uint32            // IDs with count > 0, in no particular order
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
	}
	for i, s := range initial {
		id, canon, err := reg.intern(s)
		if err != nil {
			return nil, fmt.Errorf("intern: binding table entry %d: %w", i, err)
		}
		t.ids[i], t.strats[i] = id, canon
		t.add(id)
	}
	return t, nil
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
func (t *Table) Strategy(id uint32) strategy.Strategy {
	s, _ := t.reg.Strategy(id) // fails only for an ID the registry never issued
	return s
}

// Present returns the IDs held by at least one SSet.  The slice changes
// with the table and must not be modified.
func (t *Table) Present() []uint32 { return t.present }

// Count returns the number of SSets holding id, an ID the table has held.
func (t *Table) Count(id uint32) int { return int(t.count[id]) }

// CountOf returns the number of SSets holding a strategy equal to s.  It
// compares s with the present strategies and never interns it: an ID
// issued here would renumber every strategy interned after it.
func (t *Table) CountOf(s strategy.Strategy) int {
	for _, id := range t.present {
		if t.Strategy(id).Equal(s) {
			return int(t.count[id])
		}
	}
	return 0
}

// Set makes SSet i hold s, interning it once.
func (t *Table) Set(i int, s strategy.Strategy) (Change, error) {
	if i < 0 || i >= len(t.ids) {
		return Change{}, fmt.Errorf("intern: SSet index %d out of range [0,%d)", i, len(t.ids))
	}
	id, canon, err := t.reg.intern(s)
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
	return t.move(learner, t.ids[teacher], t.strats[teacher]), nil
}

// move points SSet i at id, whose canonical instance is canon.
func (t *Table) move(i int, id uint32, canon strategy.Strategy) Change {
	old := t.ids[i]
	ch := Change{Old: old, New: id, OldPos: int(t.pos[old]), Vacated: t.remove(old)}
	ch.Added = t.add(id)
	ch.NewPos = int(t.pos[id])
	t.ids[i], t.strats[i] = id, canon
	return ch
}

// add counts one more SSet holding id and reports whether id is newly
// present (appended to present).
func (t *Table) add(id uint32) bool {
	if int(id) >= len(t.count) {
		grow := int(id) + 1 - len(t.count)
		t.count = append(t.count, make([]int32, grow)...)
		t.pos = append(t.pos, make([]int32, grow)...)
	}
	t.count[id]++
	if t.count[id] > 1 {
		return false
	}
	t.pos[id] = int32(len(t.present))
	t.present = append(t.present, id)
	return true
}

// remove counts one SSet fewer holding id.  When none is left, id leaves
// present by swap-remove: it returns the position id vacated, which the
// last entry now fills, or -1 while id is still present.
func (t *Table) remove(id uint32) int {
	t.count[id]--
	if t.count[id] > 0 {
		return -1
	}
	p, last := t.pos[id], t.present[len(t.present)-1]
	t.present[p], t.pos[last] = last, p
	t.present = t.present[:len(t.present)-1]
	return int(p)
}
