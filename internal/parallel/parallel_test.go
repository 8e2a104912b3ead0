package parallel

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"testing/quick"

	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/population"
	"evogame/internal/strategy"
)

func baseConfig() Config {
	return Config{
		Ranks:         4,
		NumSSets:      12,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,
		MutationRate:  0.2,
		Beta:          1,
		Generations:   60,
		Seed:          42,
		OptLevel:      OptFusedFitness,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Ranks = 1 },
		func(c *Config) { c.NumSSets = 1 },
		func(c *Config) { c.NumSSets = 2; c.Ranks = 8 },
		func(c *Config) { c.AgentsPerSSet = 0 },
		func(c *Config) { c.MemorySteps = 0 },
		func(c *Config) { c.MemorySteps = 9 },
		func(c *Config) { c.Rounds = 0 },
		func(c *Config) { c.Generations = -1 },
		func(c *Config) { c.InitialStrategies = []strategy.Strategy{strategy.AllC(1)} },
	}
	for i, mutate := range cases {
		cfg := baseConfig()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
}

func TestBlockOwnerAndRangeConsistent(t *testing.T) {
	for _, tc := range []struct{ numSSets, ranks int }{
		{12, 4}, {13, 4}, {7, 3}, {100, 9}, {5, 6}, {64, 2},
	} {
		covered := make([]bool, tc.numSSets)
		for rank := 1; rank < tc.ranks; rank++ {
			lo, hi := blockRange(rank, tc.numSSets, tc.ranks)
			if lo > hi || lo < 0 || hi > tc.numSSets {
				t.Fatalf("blockRange(%d,%d,%d) = [%d,%d)", rank, tc.numSSets, tc.ranks, lo, hi)
			}
			for id := lo; id < hi; id++ {
				if covered[id] {
					t.Fatalf("SSet %d covered twice (%d SSets, %d ranks)", id, tc.numSSets, tc.ranks)
				}
				covered[id] = true
				owner, local := blockOwner(id, tc.numSSets, tc.ranks)
				if owner != rank || local != id-lo {
					t.Fatalf("blockOwner(%d) = (%d,%d), want (%d,%d)", id, owner, local, rank, id-lo)
				}
			}
		}
		for id, ok := range covered {
			if !ok {
				t.Fatalf("SSet %d not owned by any rank (%d SSets, %d ranks)", id, tc.numSSets, tc.ranks)
			}
		}
	}
}

func TestBlockDistributionBalanced(t *testing.T) {
	// Load imbalance across SSet ranks must never exceed one SSet.
	for _, tc := range []struct{ numSSets, ranks int }{{100, 9}, {4097, 17}, {31, 5}} {
		min, max := 1<<30, 0
		for rank := 1; rank < tc.ranks; rank++ {
			lo, hi := blockRange(rank, tc.numSSets, tc.ranks)
			n := hi - lo
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("imbalance %d for %d SSets over %d ranks", max-min, tc.numSSets, tc.ranks)
		}
	}
}

func TestOptLevelMapping(t *testing.T) {
	if OptOriginal.nonBlocking() || !OptNonBlockingComm.nonBlocking() {
		t.Fatal("non-blocking threshold wrong")
	}
	if OptOriginal.stateMode().String() != "linear-search" || OptStateLookup.stateMode().String() != "rolling" {
		t.Fatal("state mode mapping wrong")
	}
	if OptStateLookup.accumMode().String() != "branching" || OptFusedFitness.accumMode().String() != "lookup" {
		t.Fatal("accumulation mode mapping wrong")
	}
	names := map[OptLevel]string{
		OptOriginal: "original", OptNonBlockingComm: "comm",
		OptStateLookup: "compiler", OptFusedFitness: "instruction",
	}
	for lvl, want := range names {
		if lvl.String() != want {
			t.Fatalf("OptLevel(%d).String() = %q, want %q", lvl, lvl.String(), want)
		}
	}
	if OptLevel(99).String() == "" {
		t.Fatal("unknown OptLevel should still render")
	}
}

func TestSelectionCodecRoundTrip(t *testing.T) {
	ok, teacher, learner := decodeSelection(encodeSelection(true, 17, 391))
	if !ok || teacher != 17 || learner != 391 {
		t.Fatalf("selection round trip: %v %d %d", ok, teacher, learner)
	}
	ok, _, _ = decodeSelection(encodeSelection(false, 0, 0))
	if ok {
		t.Fatal("no-event selection decoded as an event")
	}
	if ok, _, _ := decodeSelection([]byte{1, 2}); ok {
		t.Fatal("malformed selection decoded as an event")
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	table := []strategy.Strategy{strategy.WSLS(1), strategy.AllD(1), strategy.TFT(1)}
	buf, err := encodeTable(table)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeTable(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d strategies", len(got))
	}
	for i := range table {
		if !table[i].Equal(got[i]) {
			t.Fatalf("strategy %d did not round trip", i)
		}
	}
	if _, err := decodeTable(buf[:5]); err == nil {
		t.Fatal("accepted truncated table")
	}
	if _, err := decodeTable(append(buf, 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	if _, err := decodeTable(nil); err == nil {
		t.Fatal("accepted empty table payload")
	}
}

func TestUpdateCodecRoundTrip(t *testing.T) {
	const n = 16
	u := updateMessage{
		learning: true, learner: 5, teacher: 11,
		mutation: true, target: 9, targetStrategy: strategy.AllD(1),
	}
	buf, err := encodeUpdate(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 8 + 8 + strategy.EncodedSize(1); len(buf) != want {
		t.Fatalf("update is %d bytes, want %d", len(buf), want)
	}
	got, err := decodeUpdate(buf, n)
	if err != nil {
		t.Fatal(err)
	}
	if !got.learning || got.learner != 5 || got.teacher != 11 {
		t.Fatalf("learning part wrong: %+v", got)
	}
	if !got.mutation || got.target != 9 || !got.targetStrategy.Equal(strategy.AllD(1)) {
		t.Fatalf("mutation part wrong: %+v", got)
	}

	// An adoption alone is the flag byte and two indices.
	adopt, err := encodeUpdate(updateMessage{learning: true, learner: 3, teacher: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(adopt) != 9 {
		t.Fatalf("adoption-only update is %d bytes, want 9", len(adopt))
	}
	gotAdopt, err := decodeUpdate(adopt, n)
	if err != nil {
		t.Fatal(err)
	}
	if !gotAdopt.learning || gotAdopt.learner != 3 || gotAdopt.teacher != 0 || gotAdopt.mutation {
		t.Fatalf("adoption-only update decoded as %+v", gotAdopt)
	}

	empty, err := encodeUpdate(updateMessage{})
	if err != nil {
		t.Fatal(err)
	}
	gotEmpty, err := decodeUpdate(empty, n)
	if err != nil {
		t.Fatal(err)
	}
	if gotEmpty.learning || gotEmpty.mutation {
		t.Fatal("empty update decoded as containing events")
	}

	if _, err := decodeUpdate(nil, n); err == nil {
		t.Fatal("accepted empty update payload")
	}
	if _, err := decodeUpdate(buf[:4], n); err == nil {
		t.Fatal("accepted truncated update payload")
	}
	if _, err := decodeUpdate(append(buf[:len(buf):len(buf)], 1, 2, 3), n); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	if _, err := decodeUpdate([]byte{4}, n); err == nil {
		t.Fatal("accepted unknown flag bits")
	}
	// Every index is checked against the table size, and the error names
	// the offending field.
	for _, bad := range []struct {
		field string
		u     updateMessage
	}{
		{"learner", updateMessage{learning: true, learner: n, teacher: 0}},
		{"teacher", updateMessage{learning: true, learner: 0, teacher: n + 7}},
		{"target", updateMessage{mutation: true, target: n, targetStrategy: strategy.TFT(1)}},
	} {
		b, err := encodeUpdate(bad.u)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeUpdate(b, n)
		if err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Fatalf("out-of-range %s: got error %v", bad.field, err)
		}
	}
}

// FuzzDecodeUpdate feeds arbitrary payloads to decodeUpdate: it must never
// panic, and a payload it accepts must carry in-range indices and
// re-encode byte for byte.
func FuzzDecodeUpdate(f *testing.F) {
	const n = 12
	seeds := []updateMessage{
		{},
		{learning: true, learner: 3, teacher: 7},
		{mutation: true, target: 11, targetStrategy: strategy.WSLS(2)},
		{learning: true, learner: 0, teacher: 11, mutation: true, target: 4, targetStrategy: strategy.AllC(1)},
	}
	for _, u := range seeds {
		buf, err := encodeUpdate(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{1, 12, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, buf []byte) {
		u, err := decodeUpdate(buf, n)
		if err != nil {
			return
		}
		for _, idx := range []int{u.learner, u.teacher, u.target} {
			if idx < 0 || idx >= n {
				t.Fatalf("accepted index %d outside [0,%d): %+v", idx, n, u)
			}
		}
		again, err := encodeUpdate(u)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, buf) {
			t.Fatalf("re-encoded %x, decoded from %x", again, buf)
		}
	})
}

func TestRunBasic(t *testing.T) {
	cfg := baseConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalStrategies) != cfg.NumSSets {
		t.Fatalf("final table has %d strategies", len(res.FinalStrategies))
	}
	if res.Generations != cfg.Generations {
		t.Fatalf("generations = %d", res.Generations)
	}
	if len(res.Ranks) != cfg.Ranks {
		t.Fatalf("rank reports = %d", len(res.Ranks))
	}
	if res.TotalGames == 0 {
		t.Fatal("no games were played")
	}
	if res.NatureStats.Generations != cfg.Generations {
		t.Fatalf("nature generations = %d", res.NatureStats.Generations)
	}
	// Every SSet rank plays (local SSets) * (NumSSets-1) games per generation.
	wantGames := int64(cfg.NumSSets) * int64(cfg.NumSSets-1) * int64(cfg.Generations)
	if res.TotalGames != wantGames {
		t.Fatalf("total games = %d, want %d", res.TotalGames, wantGames)
	}
	if res.WallClock <= 0 {
		t.Fatal("wall clock not recorded")
	}
	if res.ComputeTime() <= 0 {
		t.Fatal("compute time not recorded")
	}
	if res.CommTime() <= 0 {
		t.Fatal("comm time not recorded")
	}
}

func TestRunDeterministicAcrossRankCounts(t *testing.T) {
	// The same configuration must produce the same final strategy table no
	// matter how many ranks the population is spread over.
	var want []strategy.Strategy
	for _, ranks := range []int{2, 3, 5, 7} {
		cfg := baseConfig()
		cfg.Ranks = ranks
		cfg.Generations = 40
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if want == nil {
			want = res.FinalStrategies
			continue
		}
		for i := range want {
			if !want[i].Equal(res.FinalStrategies[i]) {
				t.Fatalf("ranks=%d: final table differs at SSet %d", ranks, i)
			}
		}
	}
}

func TestRunMatchesSerialEngine(t *testing.T) {
	// The distributed engine must reproduce the serial reference engine's
	// dynamics exactly for noiseless games: same seed, same events, same
	// final strategy table.
	cfg := baseConfig()
	cfg.Generations = 80
	cfg.MutationRate = 0.3

	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := population.New(population.Config{
		NumSSets:      cfg.NumSSets,
		AgentsPerSSet: cfg.AgentsPerSSet,
		MemorySteps:   cfg.MemorySteps,
		Rounds:        cfg.Rounds,
		PCRate:        cfg.PCRate,
		MutationRate:  cfg.MutationRate,
		Beta:          cfg.Beta,
		Seed:          cfg.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	serialRes, err := serial.Run(context.Background(), cfg.Generations)
	if err != nil {
		t.Fatal(err)
	}

	if par.NatureStats != serialRes.NatureStats {
		t.Fatalf("nature stats differ: parallel %+v vs serial %+v", par.NatureStats, serialRes.NatureStats)
	}
	for i := range par.FinalStrategies {
		if !par.FinalStrategies[i].Equal(serialRes.FinalStrategies[i]) {
			t.Fatalf("final tables differ at SSet %d:\n parallel %s\n serial   %s",
				i, par.FinalStrategies[i], serialRes.FinalStrategies[i])
		}
	}
}

func TestOptLevelsProduceIdenticalDynamics(t *testing.T) {
	// The optimization levels change how fast the games run, never their
	// outcome.
	var want []strategy.Strategy
	for _, lvl := range []OptLevel{OptOriginal, OptNonBlockingComm, OptStateLookup, OptFusedFitness} {
		cfg := baseConfig()
		cfg.Generations = 30
		cfg.OptLevel = lvl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		if want == nil {
			want = res.FinalStrategies
			continue
		}
		for i := range want {
			if !want[i].Equal(res.FinalStrategies[i]) {
				t.Fatalf("%v: final table differs at SSet %d", lvl, i)
			}
		}
	}
}

func TestNoisyRunDeterministicAcrossRankCounts(t *testing.T) {
	var want []strategy.Strategy
	for _, ranks := range []int{2, 4} {
		cfg := baseConfig()
		cfg.Noise = 0.05
		cfg.Ranks = ranks
		cfg.Generations = 30
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.FinalStrategies
			continue
		}
		for i := range want {
			if !want[i].Equal(res.FinalStrategies[i]) {
				t.Fatalf("noisy run differs across rank counts at SSet %d", i)
			}
		}
	}
}

func TestInitialStrategiesRespectedAndConserved(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 6
	cfg.MutationRate = -1
	cfg.PCRate = -1
	cfg.Generations = 10
	cfg.InitialStrategies = []strategy.Strategy{
		strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1),
		strategy.TFT(1), strategy.GRIM(1), strategy.Alternator(1),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range cfg.InitialStrategies {
		if !res.FinalStrategies[i].Equal(want) {
			t.Fatalf("strategy %d changed despite all dynamics being disabled", i)
		}
	}
}

func TestSkipFitnessWhenIdleReducesGames(t *testing.T) {
	full := baseConfig()
	full.PCRate = 0.2
	full.Generations = 50
	fullRes, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	lazy := full
	lazy.SkipFitnessWhenIdle = true
	lazyRes, err := Run(lazy)
	if err != nil {
		t.Fatal(err)
	}
	if lazyRes.TotalGames >= fullRes.TotalGames {
		t.Fatalf("lazy evaluation played %d games, full played %d", lazyRes.TotalGames, fullRes.TotalGames)
	}
	// The dynamics must be unchanged.
	for i := range fullRes.FinalStrategies {
		if !fullRes.FinalStrategies[i].Equal(lazyRes.FinalStrategies[i]) {
			t.Fatalf("lazy evaluation changed the dynamics at SSet %d", i)
		}
	}
}

func TestMemoryTwoRun(t *testing.T) {
	cfg := baseConfig()
	cfg.MemorySteps = 2
	cfg.Generations = 20
	cfg.NumSSets = 9
	cfg.Ranks = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.FinalStrategies {
		if s.MemorySteps() != 2 {
			t.Fatalf("SSet %d holds a memory-%d strategy", i, s.MemorySteps())
		}
	}
}

func TestWorkerCountDoesNotChangeResults(t *testing.T) {
	var want []strategy.Strategy
	for _, workers := range []int{1, 2, 8} {
		cfg := baseConfig()
		cfg.WorkersPerRank = workers
		cfg.Generations = 25
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.FinalStrategies
			continue
		}
		for i := range want {
			if !want[i].Equal(res.FinalStrategies[i]) {
				t.Fatalf("workers=%d: results differ at SSet %d", workers, i)
			}
		}
	}
}

func TestRankReportsAccountForAllSSets(t *testing.T) {
	cfg := baseConfig()
	cfg.NumSSets = 13
	cfg.Ranks = 5
	cfg.Generations = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rep := range res.Ranks {
		if rep.Rank == 0 {
			if rep.LocalSSets != 0 {
				t.Fatal("the Nature rank should not own SSets")
			}
			continue
		}
		total += rep.LocalSSets
		if rep.CommStats.Collectives == 0 {
			t.Fatalf("rank %d recorded no collectives", rep.Rank)
		}
	}
	if total != cfg.NumSSets {
		t.Fatalf("rank reports cover %d SSets, want %d", total, cfg.NumSSets)
	}
}

// Property: the block distribution covers every SSet exactly once for any
// valid (numSSets, ranks) combination.
func TestQuickBlockDistribution(t *testing.T) {
	f := func(ssetSel, rankSel uint16) bool {
		ranks := int(rankSel%30) + 2
		numSSets := int(ssetSel%500) + ranks - 1
		seen := make([]int, numSSets)
		for rank := 1; rank < ranks; rank++ {
			lo, hi := blockRange(rank, numSSets, ranks)
			for id := lo; id < hi; id++ {
				if id < 0 || id >= numSSets {
					return false
				}
				seen[id]++
				owner, _ := blockOwner(id, numSSets, ranks)
				if owner != rank {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRunGeneration64SSets4Ranks(b *testing.B) {
	cfg := Config{
		Ranks:         4,
		NumSSets:      64,
		AgentsPerSSet: 4,
		MemorySteps:   1,
		Rounds:        200,
		PCRate:        0.1,
		MutationRate:  0.05,
		Generations:   1,
		Seed:          1,
		OptLevel:      OptFusedFitness,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// reentryConfig is a cached memory-two run whose mutation stream makes
// extinct strategies re-enter often.
func reentryConfig() Config {
	return Config{
		Ranks:         5,
		NumSSets:      64,
		AgentsPerSSet: 4,
		MemorySteps:   2,
		Rounds:        game.DefaultRounds,
		PCRate:        1,
		MutationRate:  0.5,
		Generations:   3000,
		Seed:          2013,
		OptLevel:      OptFusedFitness,
		EvalMode:      fitness.EvalCached,
	}
}

// BenchmarkDistributedReentry runs the case pair-store promotion serves: a
// cached memory-two population at mutation 0.5, whose strategies die out
// fast and whose pairs a mutant redrawing an extinct strategy brings back
// from the cold log, with four SSet ranks entering and leaving the same
// IDs of the run's one store at once.  One op is a whole 3000-generation
// run.
func BenchmarkDistributedReentry(b *testing.B) {
	cfg := reentryConfig()
	b.ReportAllocs()
	var games int64
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		games = res.TotalGames
	}
	b.ReportMetric(float64(games), "games/op")
	b.ReportMetric(float64(cfg.Generations)*float64(b.N)/b.Elapsed().Seconds(), "gen/s")
}
