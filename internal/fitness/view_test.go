package fitness

import (
	"strings"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func testEngine(t *testing.T, cfg game.EngineConfig) *game.Engine {
	t.Helper()
	eng, err := game.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestNewViewSharesStoreButNotCounters pins the view contract: results and
// IDs warmed through one view are served to every other view of the store,
// while hit/miss counters stay attributed to the view that incurred them.
func TestNewViewSharesStoreButNotCounters(t *testing.T) {
	base := game.EngineConfig{
		Rounds: 30, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup,
	}
	engA := testEngine(t, base)
	engB := testEngine(t, base)
	cacheA, err := NewPairCache(engA)
	if err != nil {
		t.Fatal(err)
	}
	cacheB, err := cacheA.NewView(engB)
	if err != nil {
		t.Fatal(err)
	}
	if cacheA.Interner() != cacheB.Interner() {
		t.Fatal("views over one store must share one interning registry")
	}
	if cacheA.store.gameID != cacheB.store.gameID {
		t.Fatal("views over one store must report one game identity")
	}
	if cacheA.eng == cacheB.eng {
		t.Fatal("each view must keep its own engine")
	}

	src := rng.New(11)
	ids := make([]uint32, 12)
	for i := range ids {
		id, err := cacheA.Interner().Intern(strategy.RandomPure(2, src))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// Warm every pair through view A.
	for _, a := range ids {
		for _, b := range ids {
			if _, err := cacheA.PlayID(a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if cacheA.Misses() == 0 || cacheA.Hits() == 0 {
		t.Fatalf("warming view recorded hits=%d misses=%d, want both positive", cacheA.Hits(), cacheA.Misses())
	}
	if cacheB.Hits() != 0 || cacheB.Misses() != 0 {
		t.Fatalf("cold view already carries hits=%d misses=%d", cacheB.Hits(), cacheB.Misses())
	}
	// Every probe through view B is now a hit played by nobody: identical
	// results, zero misses, engine B untouched.
	for _, a := range ids {
		for _, b := range ids {
			ra, err := cacheA.PlayID(a, b)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := cacheB.PlayID(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if ra != rb {
				t.Fatalf("views disagree on pair (%d,%d): %+v vs %+v", a, b, ra, rb)
			}
		}
	}
	if cacheB.Misses() != 0 {
		t.Fatalf("warm store still cost the second view %d misses", cacheB.Misses())
	}
	if got, want := cacheB.Hits(), int64(len(ids)*len(ids)); got != want {
		t.Fatalf("second view hits = %d, want %d", got, want)
	}
	if ks := cacheB.eng.KernelStats(); ks.ScalarGames+ks.CycleGames+ks.BatchGames+ks.VectorGames != 0 {
		t.Fatal("an all-hits view must not have played games through its engine")
	}
	if cacheA.storedPairs() != cacheB.storedPairs() {
		t.Fatalf("views report different store sizes: %d vs %d", cacheA.storedPairs(), cacheB.storedPairs())
	}
}

// TestNewViewRejectsIncompatibleEngines checks that a view can only be bound
// to an engine playing the identical deterministic game.
func TestNewViewRejectsIncompatibleEngines(t *testing.T) {
	base := game.EngineConfig{
		Rounds: 30, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup,
	}
	cache, err := NewPairCache(testEngine(t, base))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  game.EngineConfig
		want string
	}{
		{"rounds", game.EngineConfig{Rounds: 31, MemorySteps: 2, StateMode: game.StateRolling, AccumMode: game.AccumLookup}, "bound to game"},
		{"memory", game.EngineConfig{Rounds: 30, MemorySteps: 3, StateMode: game.StateRolling, AccumMode: game.AccumLookup}, "memory"},
		{"noise", game.EngineConfig{Rounds: 30, MemorySteps: 2, Noise: 0.05, StateMode: game.StateRolling, AccumMode: game.AccumLookup}, "noiseless"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cache.NewView(testEngine(t, tc.cfg)); err == nil {
				t.Fatalf("NewView accepted an engine with a different %s", tc.name)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := cache.NewView(nil); err == nil {
		t.Fatal("NewView accepted a nil engine")
	}
}

// TestRecordCountsPairStoredMeanwhile stores a pair through view B between
// view A's probe and view A's record, the interleaving of two SSet ranks
// racing on one pair.  A's record finds the pair stored and counts a hit,
// so each lookup counts once, whichever view reaches the pair first: one
// hit for A, one miss for B, and A gets B's result.
func TestRecordCountsPairStoredMeanwhile(t *testing.T) {
	cfg := game.EngineConfig{Rounds: 30, MemorySteps: 2}
	a, err := NewPairCache(testEngine(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := a.NewView(testEngine(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	tft, err := a.Interner().Intern(strategy.TFT(2))
	if err != nil {
		t.Fatal(err)
	}
	alld, err := a.Interner().Intern(strategy.AllD(2))
	if err != nil {
		t.Fatal(err)
	}
	var probe game.Result
	if a.lookup(tft, alld, &probe) {
		t.Fatal("the pair is stored before any view played it")
	}
	want, err := b.PlayID(alld, tft)
	if err != nil {
		t.Fatal(err)
	}
	played, err := a.eng.Play(strategy.TFT(2), strategy.AllD(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.record(tft, alld, played); got != swap(want) {
		t.Fatalf("record returned %+v, want the stored %+v", got, swap(want))
	}
	if a.Hits() != 1 || a.Misses() != 0 || b.Hits() != 0 || b.Misses() != 1 {
		t.Fatalf("view A hits %d misses %d, view B hits %d misses %d; want 1 0 0 1",
			a.Hits(), a.Misses(), b.Hits(), b.Misses())
	}
}
