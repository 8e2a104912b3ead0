package intern

import (
	"slices"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func TestTableBasics(t *testing.T) {
	tab, err := NewTable(NewRegistry(), []strategy.Strategy{strategy.AllC(1), strategy.AllD(1), strategy.AllC(1)})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if tab.Get(1).String() != "1111" {
		t.Fatal("Get returned the wrong strategy")
	}
	if got := tab.IDs(); !slices.Equal(got, []uint32{0, 1, 0}) {
		t.Fatalf("IDs = %v, want [0 1 0] (interned in table order)", got)
	}
	if _, err := tab.Set(2, strategy.WSLS(1)); err != nil {
		t.Fatal(err)
	}
	if tab.Get(2).String() != "0110" || tab.ID(2) != 2 {
		t.Fatalf("Set did not take effect: %v as ID %d", tab.Get(2), tab.ID(2))
	}
	if _, err := tab.Adopt(0, 2); err != nil {
		t.Fatal(err)
	}
	if tab.Get(0) != tab.Get(2) || tab.ID(0) != 2 {
		t.Fatal("Adopt must share the teacher's ID and strategy value")
	}
	for _, bad := range []int{5, -1} {
		if _, err := tab.Set(bad, strategy.WSLS(1)); err == nil {
			t.Fatalf("Set accepted index %d", bad)
		}
		if _, err := tab.Adopt(bad, 0); err == nil {
			t.Fatalf("Adopt accepted learner %d", bad)
		}
		if _, err := tab.Adopt(0, bad); err == nil {
			t.Fatalf("Adopt accepted teacher %d", bad)
		}
	}
	if _, err := tab.Set(0, nil); err == nil {
		t.Fatal("Set accepted a nil strategy")
	}
}

func TestTableValidation(t *testing.T) {
	if _, err := NewTable(NewRegistry(), nil); err == nil {
		t.Fatal("NewTable accepted an empty slice")
	}
	if _, err := NewTable(NewRegistry(), []strategy.Strategy{strategy.AllC(1), nil}); err == nil {
		t.Fatal("NewTable accepted a nil entry")
	}
	if _, err := NewTable(nil, []strategy.Strategy{strategy.AllC(1)}); err == nil {
		t.Fatal("NewTable accepted a nil registry")
	}
	if _, err := NewTable(NewRegistry(), []strategy.Strategy{unknownStrategy{}}); err == nil {
		t.Fatal("NewTable accepted a strategy the codec cannot encode")
	}
}

func TestTableStrategiesIsACopy(t *testing.T) {
	tab, err := NewTable(NewRegistry(), []strategy.Strategy{strategy.AllC(1), strategy.AllD(1)})
	if err != nil {
		t.Fatal(err)
	}
	snap := tab.Strategies()
	snap[0] = strategy.WSLS(1)
	if tab.Get(0).String() != "0000" {
		t.Fatal("writing to the returned slice changed the table")
	}
	if _, err := tab.Adopt(0, 1); err != nil {
		t.Fatal(err)
	}
	if snap[1].String() != "1111" || tab.Strategies()[0].String() != "1111" {
		t.Fatal("a change to the table must leave an earlier slice as it was")
	}
}

// TestTableStoresCanonicalInstances pins that the table holds the
// registry's instances: a caller modifying a value it passed in changes
// neither the table's strategies nor their IDs.
func TestTableStoresCanonicalInstances(t *testing.T) {
	reg := NewRegistry()
	p := strategy.TFT(1)
	tab, err := NewTable(reg, []strategy.Strategy{p, strategy.AllD(1)})
	if err != nil {
		t.Fatal(err)
	}
	q := strategy.WSLS(1)
	if _, err := tab.Set(1, q); err != nil {
		t.Fatal(err)
	}
	p.FlipMove(0)
	q.FlipMove(0)
	canon0, _ := reg.Strategy(tab.ID(0))
	canon1, _ := reg.Strategy(tab.ID(1))
	if tab.Get(0) != canon0 || tab.Get(1) != canon1 {
		t.Fatal("the table must hold the registry's canonical instances")
	}
	if !tab.Get(0).Equal(strategy.TFT(1)) || !tab.Get(1).Equal(strategy.WSLS(1)) {
		t.Fatal("modifying the caller's values reached the table")
	}
}

func TestTableCounts(t *testing.T) {
	reg := NewRegistry()
	tab, err := NewTable(reg, []strategy.Strategy{
		strategy.WSLS(1), strategy.WSLS(1), strategy.WSLS(1), strategy.AllD(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	wsls, alld := tab.ID(0), tab.ID(3)
	if tab.Count(wsls) != 3 || tab.Count(alld) != 1 || len(tab.Present()) != 2 {
		t.Fatalf("counts %d/%d over %d present, want 3/1 over 2", tab.Count(wsls), tab.Count(alld), len(tab.Present()))
	}
	if tab.CountOf(strategy.WSLS(1)) != 3 || tab.CountOf(strategy.AllD(1)) != 1 {
		t.Fatal("CountOf disagrees with Count")
	}
	if tab.CountOf(strategy.TFT(1)) != 0 || tab.CountOf(unknownStrategy{}) != 0 {
		t.Fatal("CountOf counted a strategy no SSet holds")
	}
	if reg.Len() != 2 {
		t.Fatalf("CountOf interned: registry holds %d strategies, want 2", reg.Len())
	}
}

// FuzzTable drives random Set and Adopt sequences over a small pool, so
// changes to the ID an SSet already holds are common, and after every step
// checks the table against a from-scratch recount: IDs and strategies per
// SSet, count, position and first holder per ID, the present set, and that
// applying the reported Change to the previous present list (subtract at
// OldPos, swap-remove at Vacated, append when Added) yields the new list
// with New at NewPos.
func FuzzTable(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), uint8(1), uint8(1), []byte{9, 9, 9})
	f.Add(uint64(3), uint8(16), uint8(2), []byte{255, 0, 128, 7, 7, 7, 64})
	f.Fuzz(func(t *testing.T, seed uint64, size, poolSize uint8, ops []byte) {
		n, k := 1+int(size)%24, 1+int(poolSize)%6
		src := rng.New(seed)
		pool := make([]strategy.Strategy, k)
		for i := range pool {
			pool[i] = strategy.RandomPure(1+i%2, src)
		}
		initial := make([]strategy.Strategy, n)
		for i := range initial {
			initial[i] = pool[src.Intn(k)]
		}
		reg := NewRegistry()
		tab, err := NewTable(reg, initial)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(initial) // the strategy each SSet holds
		check := func(step int) {
			t.Helper()
			count := map[uint32]int{}
			for i, s := range want {
				if !tab.Get(i).Equal(s) {
					t.Fatalf("step %d: SSet %d holds %v, want %v", step, i, tab.Get(i), s)
				}
				id, _ := reg.Intern(s)
				if tab.ID(i) != id {
					t.Fatalf("step %d: SSet %d has ID %d, want %d", step, i, tab.ID(i), id)
				}
				count[id]++
			}
			present := tab.Present()
			if len(present) != len(count) {
				t.Fatalf("step %d: %d present IDs, recount %d", step, len(present), len(count))
			}
			for pos, id := range present {
				if tab.Count(id) != count[id] || count[id] == 0 {
					t.Fatalf("step %d: ID %d count %d, recount %d", step, id, tab.Count(id), count[id])
				}
				if tab.Pos(id) != pos {
					t.Fatalf("step %d: ID %d at position %d, Pos says %d", step, id, pos, tab.Pos(id))
				}
				if first := slices.Index(tab.IDs(), id); tab.First(id) != first {
					t.Fatalf("step %d: ID %d first held by SSet %d, First says %d", step, id, first, tab.First(id))
				}
			}
		}
		check(0)
		for step, op := range ops {
			i, j := int(op)%n, int(op/8)%n
			before, held := slices.Clone(tab.Present()), tab.Count(tab.ID(i))
			var ch Change
			if op&1 == 0 {
				want[i] = pool[int(op/2)%k].Clone()
				ch, err = tab.Set(i, want[i])
			} else {
				want[i] = want[j]
				ch, err = tab.Adopt(i, j)
			}
			if err != nil {
				t.Fatal(err)
			}
			if before[ch.OldPos] != ch.Old {
				t.Fatalf("step %d: OldPos %d holds ID %d before the change, not %d", step, ch.OldPos, before[ch.OldPos], ch.Old)
			}
			// Old is vacated when SSet i was its last holder, even if New == Old.
			if gone := held == 1; gone != (ch.Vacated >= 0) || (gone && ch.Vacated != ch.OldPos) {
				t.Fatalf("step %d: Vacated %d with OldPos %d, %d SSets held ID %d", step, ch.Vacated, ch.OldPos, held, ch.Old)
			}
			moved := before
			if p := ch.Vacated; p >= 0 {
				moved[p] = moved[len(moved)-1]
				moved = moved[:len(moved)-1]
			}
			if ch.Added != !slices.Contains(moved, ch.New) {
				t.Fatalf("step %d: Added %v for ID %d", step, ch.Added, ch.New)
			}
			if ch.Added {
				moved = append(moved, ch.New)
			}
			if !slices.Equal(moved, tab.Present()) {
				t.Fatalf("step %d: reported moves give %v, table has %v", step, moved, tab.Present())
			}
			if tab.Present()[ch.NewPos] != ch.New || tab.ID(i) != ch.New {
				t.Fatalf("step %d: NewPos %d does not hold ID %d", step, ch.NewPos, ch.New)
			}
			check(step + 1)
		}
	})
}
