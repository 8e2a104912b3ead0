package intern

import (
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// TestRetireFreesPagesAndNeverReusesIDs holds three pages' worth of
// strategies in a table, moves every SSet onto one survivor and retires
// the rest: their clones go, full pages are freed, a retired strategy
// interned again gets a fresh ID, and the survivor and a pinned ID stay.
func TestRetireFreesPagesAndNeverReusesIDs(t *testing.T) {
	reg := NewRegistry()
	src := rng.New(11)
	pool := make([]strategy.Strategy, 3*pageLen)
	for i := range pool {
		pool[i] = strategy.RandomPure(3, src)
	}
	tab, err := NewTable(reg, pool[:1])
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range pool[1:] {
		if _, err := tab.Set(0, s); err != nil {
			t.Fatal(err)
		}
	}
	survivor := uint32(len(pool) - 1)
	if tab.ID(0) != survivor || len(tab.Present()) != 1 {
		t.Fatalf("table holds %v, want only ID %d", tab.Present(), survivor)
	}
	if reg.Retire(survivor) {
		t.Fatal("retired an ID a table holds")
	}
	const pinned = pageLen + 3
	reg.Pin(pinned)
	for id := uint32(0); id < survivor; id++ {
		if got := reg.Held(id); got != 1 {
			t.Fatalf("ID %d held count %d, want 1 (held once, by nobody now)", id, got)
		}
		if reg.Retire(id) != (id != pinned) {
			t.Fatalf("Retire(%d) = %v with pin %v", id, !(id != pinned), id == pinned)
		}
	}
	if !reg.pageFreed(0) || reg.pageFreed(1) || reg.pageFreed(2) {
		t.Fatal("want page 0 freed, page 1 kept by its pinned ID and page 2 by the survivor")
	}
	if _, err := reg.Strategy(5); err == nil {
		t.Fatal("a retired ID still resolves")
	}
	if s, err := reg.Strategy(pinned); err != nil || !s.Equal(pool[pinned]) {
		t.Fatalf("pinned ID resolves to %v, %v", s, err)
	}
	if reg.Held(5) >= 0 || reg.Held(pageLen+5) >= 0 {
		t.Fatal("retired IDs must read as retired, page freed or not")
	}
	id, err := reg.Intern(pool[5])
	if err != nil || id != uint32(len(pool)) {
		t.Fatalf("a retired strategy re-interned as %d (%v), want the fresh ID %d", id, err, len(pool))
	}
	if again, _ := reg.Intern(pool[pinned]); again != pinned {
		t.Fatalf("the pinned strategy re-interned as %d, want %d", again, pinned)
	}
	// A page of the table's own state is freed once the registry frees its
	// page, at the next page the table makes.
	if tab.byID.dir[0] == nil {
		t.Fatal("the table freed a page before making another")
	}
	if _, err := tab.Set(0, pool[5]); err != nil {
		t.Fatal(err)
	}
	if tab.byID.dir[0] != nil || tab.byID.dir[1] == nil {
		t.Fatal("the table must free the page its registry freed and keep the others")
	}
	tab.Release()
	if reg.Held(id) != 1 || !reg.Retire(id) || !reg.Retire(survivor) {
		t.Fatal("a released table still holds its IDs")
	}
}
