package intern

import (
	"sync"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func TestInternDenseAndCanonical(t *testing.T) {
	r := NewRegistry()
	tft := strategy.TFT(1)
	id0, err := r.Intern(tft)
	if err != nil {
		t.Fatal(err)
	}
	if id0 != 0 {
		t.Fatalf("first ID = %d, want 0", id0)
	}
	// Equal move tables share one ID regardless of the holding value.
	tft2, err := strategy.ParsePure(1, tft.String())
	if err != nil {
		t.Fatal(err)
	}
	id1, err := r.Intern(tft2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id0 {
		t.Fatalf("equal tables got IDs %d and %d", id0, id1)
	}
	id2, err := r.Intern(strategy.AllD(1))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != 1 {
		t.Fatalf("second distinct strategy got ID %d, want 1", id2)
	}
	if r.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", r.Len())
	}
	got, err := r.Strategy(id0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(tft) {
		t.Fatalf("Strategy(%d) = %v, want TFT", id0, got)
	}
}

func TestInternCanonicalInstanceIsIsolated(t *testing.T) {
	r := NewRegistry()
	p := strategy.TFT(1)
	id, err := r.Intern(p)
	if err != nil {
		t.Fatal(err)
	}
	p.FlipMove(0) // mutate the caller's value in place
	got, err := r.Strategy(id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(strategy.TFT(1)) {
		t.Fatal("mutating the interned value corrupted the canonical instance")
	}
}

func TestInternErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Intern(nil); err == nil {
		t.Fatal("accepted a nil strategy")
	}
	if _, err := r.Intern(unknownStrategy{}); err == nil {
		t.Fatal("accepted a strategy the codec cannot encode")
	}
	if _, err := r.Strategy(42); err == nil {
		t.Fatal("accepted an unknown ID")
	}
}

func TestInternConcurrent(t *testing.T) {
	r := NewRegistry()
	table := make([]strategy.Strategy, 64)
	src := rng.New(7)
	for i := range table {
		table[i] = strategy.RandomPure(2, src)
	}
	ids := make([][]uint32, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]uint32, len(table))
			for i, s := range table {
				id, err := r.Intern(s)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = id
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < 8; w++ {
		for i := range table {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d interned strategy %d as %d, worker 0 as %d", w, i, ids[w][i], ids[0][i])
			}
		}
	}
}

// unknownStrategy is a Strategy implementation outside the codec.
type unknownStrategy struct{}

func (unknownStrategy) MemorySteps() int           { return 1 }
func (unknownStrategy) Words() []uint64            { return []uint64{0} }
func (u unknownStrategy) Clone() strategy.Strategy { return u }
func (unknownStrategy) Equal(other strategy.Strategy) bool {
	_, ok := other.(unknownStrategy)
	return ok
}
func (unknownStrategy) String() string { return "unknown" }
