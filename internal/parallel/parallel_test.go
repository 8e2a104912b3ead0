package parallel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	scratch := strategy.NewPure(1)
	u := updateMessage{
		learning: true, learner: 5, teacher: 11,
		mutation: true, target: 9, targetStrategy: strategy.AllD(1),
	}
	buf, err := encodeUpdate(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 8 + 8 + strategy.EncodedSize(1); len(buf) != want {
		t.Fatalf("update is %d bytes, want %d", len(buf), want)
	}
	got, err := decodeUpdate(buf, n, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !got.learning || got.learner != 5 || got.teacher != 11 {
		t.Fatalf("learning part wrong: %+v", got)
	}
	if !got.mutation || got.target != 9 || !got.targetStrategy.Equal(strategy.AllD(1)) {
		t.Fatalf("mutation part wrong: %+v", got)
	}
	if got.targetStrategy != strategy.Strategy(scratch) {
		t.Fatal("the mutant was not decoded into the scratch strategy")
	}

	// encodeUpdate appends: a reused buffer keeps its prefix and its
	// capacity.
	prefix := []byte{0xAA}
	again, err := encodeUpdate(append(make([]byte, 0, 64), prefix...), u)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[:1], prefix) || !bytes.Equal(again[1:], buf) || cap(again) != 64 {
		t.Fatalf("append into a reused buffer gave %x (cap %d), want %x%x", again, cap(again), prefix, buf)
	}

	// A mutant of another depth than the scratch strategy is rejected.
	deep, err := encodeUpdate(nil, updateMessage{mutation: true, target: 2, targetStrategy: strategy.WSLS(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeUpdate(deep, n, scratch); !errors.Is(err, strategy.ErrCorrupt) {
		t.Fatalf("memory-2 mutant into a memory-1 scratch: got error %v, want ErrCorrupt", err)
	}
	if !scratch.Equal(strategy.AllD(1)) {
		t.Fatal("a rejected mutant changed the scratch strategy")
	}

	// An adoption alone is the flag byte and two indices.
	adopt, err := encodeUpdate(nil, updateMessage{learning: true, learner: 3, teacher: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(adopt) != 9 {
		t.Fatalf("adoption-only update is %d bytes, want 9", len(adopt))
	}
	gotAdopt, err := decodeUpdate(adopt, n, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !gotAdopt.learning || gotAdopt.learner != 3 || gotAdopt.teacher != 0 || gotAdopt.mutation {
		t.Fatalf("adoption-only update decoded as %+v", gotAdopt)
	}

	empty, err := encodeUpdate(nil, updateMessage{})
	if err != nil {
		t.Fatal(err)
	}
	gotEmpty, err := decodeUpdate(empty, n, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if gotEmpty.learning || gotEmpty.mutation {
		t.Fatal("empty update decoded as containing events")
	}

	if _, err := decodeUpdate(nil, n, scratch); err == nil {
		t.Fatal("accepted empty update payload")
	}
	if _, err := decodeUpdate(buf[:4], n, scratch); err == nil {
		t.Fatal("accepted truncated update payload")
	}
	if _, err := decodeUpdate(append(buf[:len(buf):len(buf)], 1, 2, 3), n, scratch); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	if _, err := decodeUpdate([]byte{4}, n, scratch); err == nil {
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
		b, err := encodeUpdate(nil, bad.u)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeUpdate(b, n, scratch)
		if err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Fatalf("out-of-range %s: got error %v", bad.field, err)
		}
	}
}

// TestDecodeFitnessRejectsWrongLength: a fitness return that is not one
// float64 is an error naming the sender, the tag and the length, not a
// fitness of 0.
func TestDecodeFitnessRejectsWrongLength(t *testing.T) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(2.5))
	if f, err := decodeFitness(buf[:], 3, tagFitnessLearner); err != nil || f != 2.5 {
		t.Fatalf("8-byte payload: got %v, %v, want 2.5", f, err)
	}
	_, err := decodeFitness(buf[:7], 3, tagFitnessLearner)
	if err == nil {
		t.Fatal("accepted a 7-byte fitness payload")
	}
	for _, want := range []string{"rank 3", "7-byte", fmt.Sprintf("tag %d", tagFitnessLearner)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// FuzzDecodeUpdate feeds arbitrary payloads to decodeUpdate with a
// memory-two scratch strategy: it must never panic, and a payload it
// accepts must carry in-range indices and re-encode byte for byte.
func FuzzDecodeUpdate(f *testing.F) {
	const (
		n   = 12
		mem = 2
	)
	seeds := []updateMessage{
		{},
		{learning: true, learner: 3, teacher: 7},
		{mutation: true, target: 11, targetStrategy: strategy.WSLS(mem)},
		{learning: true, learner: 0, teacher: 11, mutation: true, target: 4, targetStrategy: strategy.AllC(mem)},
	}
	for _, u := range seeds {
		buf, err := encodeUpdate(nil, u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{1, 12, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 255, 255, 255, 255})
	scratch := strategy.NewPure(mem)
	// A mutant of another depth is rejected, not decoded into the scratch.
	other, err := encodeUpdate(nil, updateMessage{mutation: true, target: 1, targetStrategy: strategy.WSLS(mem + 1)})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeUpdate(other, n, scratch); !errors.Is(err, strategy.ErrCorrupt) {
		f.Fatalf("memory-%d mutant into a memory-%d scratch: got error %v, want ErrCorrupt", mem+1, mem, err)
	}
	f.Add(other)
	f.Fuzz(func(t *testing.T, buf []byte) {
		u, err := decodeUpdate(buf, n, scratch)
		if err != nil {
			return
		}
		for _, idx := range []int{u.learner, u.teacher, u.target} {
			if idx < 0 || idx >= n {
				t.Fatalf("accepted index %d outside [0,%d): %+v", idx, n, u)
			}
		}
		if u.mutation && u.targetStrategy.MemorySteps() != mem {
			t.Fatalf("accepted a memory-%d mutant into a memory-%d scratch", u.targetStrategy.MemorySteps(), mem)
		}
		again, err := encodeUpdate(nil, u)
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

// TestEvalFullMutantsAreNotAliased: an EvalFull SSet rank decodes every
// broadcast mutant into one scratch strategy, which the next mutation
// overwrites, so its table must keep a clone.  The distributed run at
// mutation 0.5 must match the serial engine, which never shares a
// strategy with a decoder, and the serial run, stepped one generation at
// a time, shows that the run has consecutive mutations, the case a table
// aliasing the scratch strategy gets wrong.
func TestEvalFullMutantsAreNotAliased(t *testing.T) {
	cfg := baseConfig()
	cfg.Generations = 200
	cfg.MutationRate = 0.5

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
	consecutive, prev := 0, false
	for gen := 0; gen < cfg.Generations; gen++ {
		before := serial.NatureStats().Mutations
		if err := serial.Step(); err != nil {
			t.Fatal(err)
		}
		mutated := serial.NatureStats().Mutations > before
		if mutated && prev {
			consecutive++
		}
		prev = mutated
	}
	if consecutive == 0 {
		t.Fatal("the run has no two consecutive mutations")
	}
	if got := serial.NatureStats(); par.NatureStats != got {
		t.Fatalf("nature stats differ: parallel %+v vs serial %+v", par.NatureStats, got)
	}
	for i, s := range serial.Strategies() {
		if !par.FinalStrategies[i].Equal(s) {
			t.Fatalf("final tables differ at SSet %d:\n parallel %s\n serial   %s", i, par.FinalStrategies[i], s)
		}
	}
}

func TestOptLevelsProduceIdenticalDynamics(t *testing.T) {
	// The optimization levels change how fast the games run, never their
	// outcome, and every level moves the same messages: in-process sends
	// are eager, so the "comm" level sends exactly what OptOriginal does.
	var want Result
	for n, lvl := range []OptLevel{OptOriginal, OptNonBlockingComm, OptStateLookup, OptFusedFitness} {
		cfg := baseConfig()
		cfg.Generations = 30
		cfg.OptLevel = lvl
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", lvl, err)
		}
		if n == 0 {
			want = res
			continue
		}
		for i := range want.FinalStrategies {
			if !want.FinalStrategies[i].Equal(res.FinalStrategies[i]) {
				t.Fatalf("%v: final table differs at SSet %d", lvl, i)
			}
		}
		for r, rep := range res.Ranks {
			got, ref := rep.CommStats, want.Ranks[r].CommStats
			if got.SendCount != ref.SendCount || got.RecvCount != ref.RecvCount || got.BytesSent != ref.BytesSent {
				t.Fatalf("%v: rank %d sent/received/bytes %d/%d/%d, OptOriginal %d/%d/%d", lvl, rep.Rank,
					got.SendCount, got.RecvCount, got.BytesSent, ref.SendCount, ref.RecvCount, ref.BytesSent)
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

// foreignStrategy is a strategy implementation outside the strategy codec.
type foreignStrategy struct{ *strategy.Pure }

func (f foreignStrategy) Clone() strategy.Strategy {
	return foreignStrategy{f.Pure.Clone().(*strategy.Pure)}
}

// TestRunRejectsNonPureTables puts each kind of entry the engines cannot
// play at index 4 of the initial table: nil, a strategy outside the codec,
// a mixed strategy and a pure one of another memory depth.  Run must fail
// before the fabric starts, with an error naming the engine and the entry,
// in every eval mode and with or without noise.
func TestRunRejectsNonPureTables(t *testing.T) {
	gtft, err := strategy.GTFT(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		entry strategy.Strategy
		want  string
	}{
		{"nil", nil, "parallel: strategy table entry 4 is nil"},
		{"foreign", foreignStrategy{strategy.TFT(1)}, "parallel: strategy table entry 4 is a parallel.foreignStrategy, not a pure strategy"},
		{"mixed", gtft, "parallel: strategy table entry 4 is a *strategy.Mixed, not a pure strategy"},
		{"memory-two", strategy.TFT(2), "parallel: strategy table entry 4 has memory 2, want 1"},
	} {
		for _, mode := range []fitness.EvalMode{fitness.EvalFull, fitness.EvalCached, fitness.EvalIncremental} {
			for _, noise := range []float64{0, 0.05} {
				cfg := baseConfig()
				cfg.NumSSets, cfg.EvalMode, cfg.Noise, cfg.Generations = 6, mode, noise, 5
				cfg.InitialStrategies = []strategy.Strategy{
					strategy.AllC(1), strategy.AllD(1), strategy.WSLS(1), strategy.TFT(1), tc.entry, strategy.GRIM(1),
				}
				if _, err := Run(cfg); err == nil || err.Error() != tc.want {
					t.Errorf("%s/%v/noise %v: Run = %v, want %q", tc.name, mode, noise, err, tc.want)
				}
			}
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
		if rep.CommStats.RecvCount == 0 {
			t.Fatalf("rank %d received no messages", rep.Rank)
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
