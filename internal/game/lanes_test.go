package game

import (
	"fmt"
	"sync"
	"testing"

	"evogame/internal/rng"
)

// walkLanesUsable records whether this CPU can run the gather kernel, read
// before any test clears useWalkLanes.
var walkLanesUsable = useWalkLanes

// withWalkLanes runs f with useWalkLanes set to on (never on where the CPU
// lacks the kernel), restoring the switch afterwards.
func withWalkLanes(on bool, f func()) {
	defer func(v bool) { useWalkLanes = v }(useWalkLanes)
	useWalkLanes = on && walkLanesUsable
	f()
}

// tableKind is how a test or benchmark draws its packed move tables.
type tableKind int

const (
	randomTables    tableKind = iota // every state's move a fair coin
	defectTables                     // defect with probability 15/16
	cooperateTables                  // defect with probability 1/16
	numTableKinds
)

func (k tableKind) String() string {
	return [...]string{"random", "defect", "cooperate"}[k]
}

// kindWordPlayer draws a memory-mem table of the given kind from src: the
// OR (defect) or AND (cooperate) of four fair-coin tables.  Defect-biased
// walks fill their history with mutual defection and close within about
// n+1 rounds (median 9 at memory six); cooperate-biased walks mostly close
// at round one, in the all-C start state.
func kindWordPlayer(mem int, kind tableKind, src *rng.Source) *wordPlayer {
	p := randomWordPlayer(mem, src)
	for k := 1; k < 4 && kind != randomTables; k++ {
		q := randomWordPlayer(mem, src)
		for i := range p.words {
			if kind == defectTables {
				p.words[i] |= q.words[i]
			} else {
				p.words[i] &= q.words[i]
			}
		}
	}
	return p
}

// checkWalkLanes plays one batch of n games at memory mem over rounds
// rounds of spec, with tables of the given kind drawn from seed, through
// PlayBatch (one focal player, the first opponent a copy of it in
// self-play) and PlayPairs (focal players drawn from a pool of three, so
// runs of one focal table alternate).  Every Result must equal Play under
// KernelFullReplay, and equal the same calls with the gather lanes
// switched off.  It returns the kernel mix of the switched-off engine.
func checkWalkLanes(t *testing.T, mem, rounds int, spec Spec, kind tableKind, n int, seed uint64) KernelStats {
	t.Helper()
	cfg := EngineConfig{Game: spec, Rounds: rounds, MemorySteps: mem}
	auto, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Kernel = KernelFullReplay
	full, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(seed)
	focal := kindWordPlayer(mem, kind, src)
	pool := []Player{focal, kindWordPlayer(mem, kind, src), kindWordPlayer(mem, kind, src)}
	as, bs := make([]Player, n), make([]Player, n)
	for i := range bs {
		as[i], bs[i] = pool[src.Intn(len(pool))], kindWordPlayer(mem, kind, src)
	}
	bs[0] = focal
	check := func(call string, as []Player, play func(e *Engine, out []Result) error) {
		t.Helper()
		lanes, plain := make([]Result, n), make([]Result, n)
		withWalkLanes(true, func() {
			if err := play(auto, lanes); err != nil {
				t.Fatal(err)
			}
		})
		withWalkLanes(false, func() {
			if err := play(off, plain); err != nil {
				t.Fatal(err)
			}
		})
		for i := range bs {
			want, err := full.Play(as[i], bs[i], nil)
			if err != nil {
				t.Fatal(err)
			}
			if lanes[i] != want || plain[i] != want {
				t.Fatalf("%s memory-%d rounds=%d %s game %d of %d: lanes %+v, lanes off %+v, full replay %+v",
					call, mem, rounds, kind, i, n, lanes[i], plain[i], want)
			}
		}
	}
	focals := make([]Player, n)
	for i := range focals {
		focals[i] = focal
	}
	check("PlayBatch", focals, func(e *Engine, out []Result) error { return e.PlayBatch(focal, bs, nil, out) })
	check("PlayPairs", as, func(e *Engine, out []Result) error { return e.PlayPairs(as, bs, nil, out) })
	return off.KernelStats()
}

// FuzzWalkLanes asserts that the gather lanes reproduce the round-by-round
// reference bit for bit at memory four to six, 1 to 512 rounds, every
// integer-valued built-in scenario, random, defect-biased and
// cooperate-biased tables, and 1 to 64 lanes.
func FuzzWalkLanes(f *testing.F) {
	// Figure 6's shape: random memory-six tables over 200 rounds, seed 2013.
	f.Add(uint8(2), uint16(199), uint8(0), uint8(randomTables), uint8(63), uint64(2013))
	// A batch holding walks that never close (see TestWalkLanesCorpus).
	f.Add(uint8(2), uint16(199), uint8(0), uint8(randomTables), uint8(63), uint64(12))
	f.Add(uint8(0), uint16(9), uint8(1), uint8(defectTables), uint8(16), uint64(1))
	f.Add(uint8(1), uint16(300), uint8(2), uint8(cooperateTables), uint8(32), uint64(2))
	f.Fuzz(func(t *testing.T, mem uint8, rounds uint16, game, kind, lanes uint8, seed uint64) {
		checkWalkLanes(t, 4+int(mem)%3, 1+int(rounds)%512, fuzzPayoffs[int(game)%len(fuzzPayoffs)],
			tableKind(kind)%numTableKinds, 1+int(lanes)%BatchLanes, seed)
	})
}

// TestWalkLanesCorpus pins what two FuzzWalkLanes seeds cover: Figure 6's
// shape, and a batch in which some walks never close, so their lanes play
// the whole game, the gate's rounds and the vector kernel's, without a
// cycle.
func TestWalkLanesCorpus(t *testing.T) {
	checkWalkLanes(t, 6, 200, IPD(), randomTables, 64, 2013)
	if s := checkWalkLanes(t, 6, 200, IPD(), randomTables, 64, 12); s.ScalarGames == 0 {
		t.Fatalf("no walk of the never-closing seed ran to the end without a revisit: %+v", s)
	}
}

// TestWalkLanesPopulation plays Figure 6's population, every ordered pair
// of 256 random memory-six tables over 200 rounds (65,280 games), through
// the gather lanes and checks each game against the per-lane path.
func TestWalkLanesPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("65,280 games")
	}
	if !walkLanesUsable {
		t.Skip("no AVX-512 gather kernel on this build or CPU")
	}
	pop := walkPopulation(6, 256, randomTables)
	lanes, plain := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 6}),
		mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 6})
	got, want := make([]Result, len(pop)-1), make([]Result, len(pop)-1)
	for i := range pop {
		opps := walkOpponents(pop, i)
		withWalkLanes(true, func() {
			if err := lanes.PlayBatch(pop[i], opps, nil, got); err != nil {
				t.Fatal(err)
			}
		})
		withWalkLanes(false, func() {
			if err := plain.PlayBatch(pop[i], opps, nil, want); err != nil {
				t.Fatal(err)
			}
		})
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("focal %d opponent %d: lanes %+v, per-lane %+v", i, k, got[k], want[k])
			}
		}
	}
	s := lanes.KernelStats()
	if s.VectorGames == 0 || s.CycleGames+s.ScalarGames+s.VectorGames != int64(len(pop)*(len(pop)-1)) {
		t.Fatalf("kernel mix %+v does not add up to %d games with some vector games", s, len(pop)*(len(pop)-1))
	}
}

// TestWalkLanesConcurrent plays one engine's gather lanes from several
// goroutines at once, as fitness.PlayAll's workers do, and checks every
// game against a sequential run: the pooled scratch and the kernel-mix
// counters are the only state they share.
func TestWalkLanesConcurrent(t *testing.T) {
	pop := walkPopulation(6, 48, randomTables)
	shared := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 6})
	alone := mustEngine(t, EngineConfig{Rounds: DefaultRounds, MemorySteps: 6})
	want, got := make([][]Result, len(pop)), make([][]Result, len(pop))
	for i := range pop {
		want[i], got[i] = make([]Result, len(pop)-1), make([]Result, len(pop)-1)
		if err := alone.PlayBatch(pop[i], walkOpponents(pop, i), nil, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 4
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pop); i += workers {
				if err := shared.PlayBatch(pop[i], walkOpponents(pop, i), nil, got[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range pop {
		for k := range got[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("focal %d opponent %d: concurrent %+v, sequential %+v", i, k, got[i][k], want[i][k])
			}
		}
	}
	if s, a := shared.KernelStats(), alone.KernelStats(); s != a {
		t.Fatalf("concurrent kernel mix %+v, sequential %+v", s, a)
	}
}

// TestDwordOffset pins the gather's addressing limit: a table is on the
// lanes only if all its dwords lie within a signed 32-bit dword index of
// the base, on either side.
func TestDwordOffset(t *testing.T) {
	const base, words = int64(1) << 40, 64
	for _, tc := range []struct {
		table int64
		off   uint32
		ok    bool
	}{
		{base, 0, true},
		{base + 8, 2, true},
		{base - 8, 1<<32 - 2, true},
		{base - 4<<31, 1 << 31, true},
		{base - 4<<31 - 8, 0, false},
		{base + 4*(1<<31-1-2*words), 1<<31 - 1 - 2*words, true},
		{base + 4*(1<<31-2*words), 0, false},
	} {
		off, ok := dwordOffset(base, tc.table, words)
		if off != tc.off || ok != tc.ok {
			t.Errorf("table at base%+d: offset %d, %v; want %d, %v", tc.table-base, off, ok, tc.off, tc.ok)
		}
	}
}

// walkPopulation draws n memory-mem tables of the given kind, seed 2013.
func walkPopulation(mem, n int, kind tableKind) []Player {
	src := rng.New(2013)
	pop := make([]Player, n)
	for i := range pop {
		pop[i] = kindWordPlayer(mem, kind, src)
	}
	return pop
}

// walkOpponents returns every player of pop but the i-th, in order.
func walkOpponents(pop []Player, i int) []Player {
	return append(append([]Player(nil), pop[:i]...), pop[i+1:]...)
}

// BenchmarkPlayBatchWalks plays every ordered pair of a 64-table
// population through PlayBatch, one focal table against the other 63 per
// call as Figure 6's full replay does, at memory four to six on random and
// defect-biased tables, with the gather lanes on and off.  It reports the
// time per game and the share of games the lanes replayed past the gate.
func BenchmarkPlayBatchWalks(b *testing.B) {
	for mem := 4; mem <= 6; mem++ {
		for _, kind := range []tableKind{randomTables, defectTables} {
			pop := walkPopulation(mem, 64, kind)
			opps := make([][]Player, len(pop))
			for i := range pop {
				opps[i] = walkOpponents(pop, i)
			}
			out := make([]Result, len(pop)-1)
			for _, on := range []bool{true, false} {
				path := "lanes"
				if !on {
					path = "cycle"
				}
				b.Run(fmt.Sprintf("m%d/%s/%s", mem, kind, path), func(b *testing.B) {
					e, err := NewEngine(EngineConfig{Rounds: DefaultRounds, MemorySteps: mem})
					if err != nil {
						b.Fatal(err)
					}
					withWalkLanes(on, func() {
						b.ResetTimer()
						for n := 0; n < b.N; n++ {
							for i := range pop {
								if err := e.PlayBatch(pop[i], opps[i], nil, out); err != nil {
									b.Fatal(err)
								}
							}
						}
					})
					games := float64(b.N) * float64(len(pop)*(len(pop)-1))
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/games, "ns/game")
					b.ReportMetric(float64(e.KernelStats().VectorGames)/games, "vector/game")
				})
			}
		}
	}
}
