package nature

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"evogame/internal/checkpoint"
	"evogame/internal/dynamics"
	"evogame/internal/rng"
)

func newAgent(t *testing.T, cfg Config, seed uint64) *Agent {
	t.Helper()
	if cfg.MemorySteps == 0 {
		cfg.MemorySteps = 1
	}
	a, err := New(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFermiValues(t *testing.T) {
	if got := dynamics.FermiProb(1, 10, 10); got != 0.5 {
		t.Fatalf("Fermi with equal payoffs = %v, want 0.5", got)
	}
	if got := dynamics.FermiProb(0, 100, 0); got != 0.5 {
		t.Fatalf("Fermi with beta 0 = %v, want 0.5", got)
	}
	if got := dynamics.FermiProb(10, 100, 0); got < 0.999 {
		t.Fatalf("Fermi with large advantage = %v, want ~1", got)
	}
	if got := dynamics.FermiProb(10, 0, 100); got > 0.001 {
		t.Fatalf("Fermi with large disadvantage = %v, want ~0", got)
	}
}

func TestFermiMonotoneInDifference(t *testing.T) {
	prev := -1.0
	for d := -50.0; d <= 50; d += 5 {
		p := dynamics.FermiProb(0.5, d, 0)
		if p <= prev {
			t.Fatalf("Fermi not strictly increasing at difference %v", d)
		}
		if p < 0 || p > 1 {
			t.Fatalf("Fermi out of [0,1]: %v", p)
		}
		prev = p
	}
}

func TestFermiSymmetry(t *testing.T) {
	// p(teacher,learner) + p(learner,teacher) == 1.
	for _, d := range []float64{0, 1, 3.5, 100} {
		sum := dynamics.FermiProb(1, d, 0) + dynamics.FermiProb(1, 0, d)
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("Fermi(β,d,0)+Fermi(β,0,d) = %v, want 1", sum)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	a := newAgent(t, Config{MemorySteps: 2}, 1)
	cfg := a.cfg
	if cfg.PCRate != DefaultPCRate || cfg.MutationRate != DefaultMutationRate || cfg.Beta != DefaultBeta {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	_, s, ok := newAgent(t, Config{MemorySteps: 2, MutationRate: 1}, 3).MaybeMutation(4)
	if !ok || s.MemorySteps() != 2 {
		t.Fatalf("mutation produced %v (ok=%v), want a memory-2 strategy", s, ok)
	}
}

func TestConfigNegativeRatesDisable(t *testing.T) {
	a := newAgent(t, Config{PCRate: -1, MutationRate: -1, MemorySteps: 1}, 1)
	for i := 0; i < 1000; i++ {
		if _, _, ok := a.MaybeSelectPC(10); ok {
			t.Fatal("PC occurred with negative (disabled) rate")
		}
		if _, _, ok := a.MaybeMutation(10); ok {
			t.Fatal("mutation occurred with negative (disabled) rate")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{MemorySteps: 0},
		{MemorySteps: 7},
		{MemorySteps: 1, PCRate: 1.5},
		{MemorySteps: 1, MutationRate: 1.2},
		{MemorySteps: 1, Beta: -2},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, rng.New(1)); err == nil {
			t.Errorf("case %d: accepted invalid config %+v", i, cfg)
		}
	}
	if _, err := New(Config{MemorySteps: 1}, nil); err == nil {
		t.Fatal("accepted nil rng source")
	}
}

func TestMaybeSelectPCRate(t *testing.T) {
	a := newAgent(t, Config{PCRate: 0.25, MemorySteps: 1}, 7)
	const gens = 100000
	events := 0
	for i := 0; i < gens; i++ {
		if _, _, ok := a.MaybeSelectPC(50); ok {
			events++
		}
	}
	rate := float64(events) / gens
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("PC event rate %v, want ~0.25", rate)
	}
}

func TestMaybeSelectPCDistinctAndInRange(t *testing.T) {
	a := newAgent(t, Config{PCRate: 1, MemorySteps: 1}, 9)
	for i := 0; i < 10000; i++ {
		teacher, learner, ok := a.MaybeSelectPC(8)
		if !ok {
			t.Fatal("PC rate 1 must always trigger an event")
		}
		if teacher == learner {
			t.Fatal("teacher and learner must be distinct")
		}
		if teacher < 0 || teacher >= 8 || learner < 0 || learner >= 8 {
			t.Fatalf("selected indices out of range: %d, %d", teacher, learner)
		}
	}
}

func TestMaybeSelectPCNeedsTwoSSets(t *testing.T) {
	a := newAgent(t, Config{PCRate: 1, MemorySteps: 1}, 3)
	if _, _, ok := a.MaybeSelectPC(1); ok {
		t.Fatal("PC event with a single SSet")
	}
	if _, _, ok := a.MaybeSelectPC(0); ok {
		t.Fatal("PC event with no SSets")
	}
}

func TestDecideAdoptionExtremes(t *testing.T) {
	a := newAgent(t, Config{Beta: 10, MemorySteps: 1}, 11)
	adoptedCount := 0
	for i := 0; i < 100; i++ {
		adopted, prob := a.DecideAdoption(1000, 0)
		if prob < 0.999 {
			t.Fatalf("probability for a much better teacher = %v", prob)
		}
		if adopted {
			adoptedCount++
		}
	}
	if adoptedCount < 99 {
		t.Fatalf("only %d/100 adoptions of a much better teacher", adoptedCount)
	}
	for i := 0; i < 100; i++ {
		adopted, _ := a.DecideAdoption(0, 1000)
		if adopted {
			t.Fatal("adopted a much worse teacher under strong selection")
		}
	}
}

func TestDecideAdoptionFrequencyMatchesFermi(t *testing.T) {
	a := newAgent(t, Config{Beta: 0.5, MemorySteps: 1}, 13)
	const trials = 200000
	adopted := 0
	for i := 0; i < trials; i++ {
		ok, _ := a.DecideAdoption(2, 0) // Fermi(0.5, 2) = 1/(1+e^-1) ≈ 0.731
		if ok {
			adopted++
		}
	}
	want := 1 / (1 + math.Exp(-1))
	got := float64(adopted) / trials
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("adoption frequency %v, want ~%v", got, want)
	}
}

func TestMaybeMutationRateAndRange(t *testing.T) {
	a := newAgent(t, Config{MutationRate: 0.05, MemorySteps: 1}, 17)
	const gens = 200000
	events := 0
	for i := 0; i < gens; i++ {
		target, strat, ok := a.MaybeMutation(30)
		if !ok {
			continue
		}
		events++
		if target < 0 || target >= 30 {
			t.Fatalf("mutation target %d out of range", target)
		}
		if strat == nil || strat.MemorySteps() != 1 {
			t.Fatal("mutation produced an invalid strategy")
		}
	}
	rate := float64(events) / gens
	if math.Abs(rate-0.05) > 0.005 {
		t.Fatalf("mutation rate %v, want ~0.05", rate)
	}
}

func TestMaybeMutationEmptyPopulation(t *testing.T) {
	a := newAgent(t, Config{MutationRate: 1, MemorySteps: 1}, 19)
	if _, _, ok := a.MaybeMutation(0); ok {
		t.Fatal("mutation with zero SSets")
	}
}

func TestAgentDeterminism(t *testing.T) {
	run := func() []int {
		a := newAgent(t, Config{PCRate: 0.5, MutationRate: 0.3, MemorySteps: 1}, 99)
		var trace []int
		for g := 0; g < 500; g++ {
			if teacher, learner, ok := a.MaybeSelectPC(64); ok {
				trace = append(trace, teacher, learner)
				adopted, _ := a.DecideAdoption(float64(g), float64(g%7))
				if adopted {
					trace = append(trace, 1)
				} else {
					trace = append(trace, 0)
				}
			}
			if target, _, ok := a.MaybeMutation(64); ok {
				trace = append(trace, target)
			}
			a.EndGeneration()
		}
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("traces differ in length: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("traces diverge at %d", i)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	a := newAgent(t, Config{PCRate: 1, MutationRate: 1, MemorySteps: 1}, 5)
	for g := 0; g < 10; g++ {
		if _, _, ok := a.MaybeSelectPC(4); ok {
			adopted, _ := a.DecideAdoption(10, 0)
			a.RecordPC(adopted)
		}
		a.MaybeMutation(4)
		a.EndGeneration()
	}
	st := a.Stats()
	if st.Generations != 10 {
		t.Fatalf("generations = %d", st.Generations)
	}
	if st.PCEvents != 10 {
		t.Fatalf("PC events = %d", st.PCEvents)
	}
	if st.Mutations != 10 {
		t.Fatalf("mutations = %d", st.Mutations)
	}
	if st.Adoptions < 8 {
		t.Fatalf("adoptions = %d, expected nearly all with a large fitness gap", st.Adoptions)
	}
}

// Property: Fermi output is always a probability, and swapping teacher and
// learner payoffs gives complementary probabilities.
func TestQuickFermiProbability(t *testing.T) {
	f := func(beta, a, b float64) bool {
		beta = math.Abs(math.Mod(beta, 100))
		a = math.Mod(a, 1e6)
		b = math.Mod(b, 1e6)
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(beta) {
			return true
		}
		p := dynamics.FermiProb(beta, a, b)
		q := dynamics.FermiProb(beta, b, a)
		return p >= 0 && p <= 1 && math.Abs(p+q-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MaybeSelectPC never returns equal indices and never exceeds the
// population size, for any seed and population size >= 2.
func TestQuickSelectPCBounds(t *testing.T) {
	f := func(seed uint64, sizeSel uint8) bool {
		size := int(sizeSel%100) + 2
		a, err := New(Config{PCRate: 1, MemorySteps: 1}, rng.New(seed))
		if err != nil {
			return false
		}
		teacher, learner, ok := a.MaybeSelectPC(size)
		return ok && teacher != learner &&
			teacher >= 0 && teacher < size && learner >= 0 && learner < size
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFermi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = dynamics.FermiProb(1, float64(i%100), float64((i*7)%100))
	}
}

func BenchmarkMaybeMutationMemorySix(b *testing.B) {
	a, _ := New(Config{MutationRate: 1, MemorySteps: 6}, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, _ = a.MaybeMutation(4096)
	}
}

// TestExportRestoreStateReplays is the Nature-Agent half of the resume
// guarantee: a fresh agent with the same configuration, resumed from the
// original's Snapshot, must replay exactly the event sequence the original
// produces from that point on, counters included.
func TestExportRestoreStateReplays(t *testing.T) {
	cfg := Config{PCRate: 0.8, MutationRate: 0.3, Beta: 1, MemorySteps: 1}
	original, err := New(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	const ssets = 10
	drive := func(a *Agent, gens int) []string {
		var events []string
		for g := 0; g < gens; g++ {
			if tch, lrn, ok := a.MaybeSelectPC(ssets); ok {
				adopted, _ := a.DecideAdoption(float64(tch), float64(lrn))
				a.RecordPC(adopted)
				events = append(events, fmt.Sprintf("pc %d %d %v", tch, lrn, adopted))
			}
			if target, strat, ok := a.MaybeMutation(ssets); ok {
				events = append(events, fmt.Sprintf("mut %d %s", target, strat.String()))
			}
			a.EndGeneration()
		}
		return events
	}
	drive(original, 50)

	snap := original.Snapshot(50, nil)
	restored, err := New(cfg, rng.New(12345)) // different seed: must be overwritten
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Resume(&snap); err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != original.Stats() {
		t.Fatalf("counters not restored: %+v vs %+v", restored.Stats(), original.Stats())
	}

	want := drive(original, 50)
	got := drive(restored, 50)
	if len(want) != len(got) {
		t.Fatalf("event counts diverged: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("event %d diverged: %q vs %q", i, got[i], want[i])
		}
	}
	if restored.Stats() != original.Stats() {
		t.Fatalf("final counters diverged: %+v vs %+v", restored.Stats(), original.Stats())
	}
}

// TestRestoreStateRejectsZeroRNG ensures a corrupt (all-zero) or missing
// nature stream cannot be installed, while a final-only snapshot leaves
// the fresh agent untouched.
func TestRestoreStateRejectsZeroRNG(t *testing.T) {
	a, err := New(Config{MemorySteps: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	zero := checkpoint.Snapshot{Resume: true, Streams: []checkpoint.Stream{{Name: checkpoint.StreamNature}}}
	if err := a.Resume(&zero); err == nil {
		t.Fatal("accepted an all-zero RNG state")
	}
	if err := a.Resume(&checkpoint.Snapshot{Resume: true}); err == nil {
		t.Fatal("accepted a resume snapshot without the nature stream")
	}
	if err := a.Resume(&checkpoint.Snapshot{Generation: 9, PCEvents: 3}); err != nil || a.Stats() != (Stats{}) {
		t.Fatalf("final-only snapshot: err=%v stats=%+v, want a fresh agent", err, a.Stats())
	}
}

// TestCheckpointCadence pins the one save rule every engine follows: a
// periodic save at each multiple of CheckpointEvery, a final save unless
// the last periodic save captured that generation, and after a failed save
// no further write, with every later call returning the failure.
func TestCheckpointCadence(t *testing.T) {
	start := func(path string) (*Agent, func(int) checkpoint.Snapshot, *[]int) {
		run, err := Start(Run{
			Name: "engine", Engine: checkpoint.EngineSerial, NumSSets: 4, AgentsPerSSet: 1,
			MemorySteps: 1, Rounds: 1, Seed: 1, CheckpointPath: path, CheckpointEvery: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		var saved []int
		return run.Agent, func(gen int) checkpoint.Snapshot {
			saved = append(saved, gen)
			return run.Agent.Snapshot(gen, run.Table)
		}, &saved
	}

	a, snap, saved := start(filepath.Join(t.TempDir(), "run.ckpt"))
	for gen := 1; gen <= 12; gen++ {
		if err := a.Checkpoint(gen, false, snap); err != nil {
			t.Fatal(err)
		}
		if gen == 10 {
			if err := a.Checkpoint(gen, true, snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Checkpoint(12, true, snap); err != nil {
		t.Fatal(err)
	}
	if want := []int{5, 10, 12}; !reflect.DeepEqual(*saved, want) {
		t.Fatalf("saved at %v, want %v (final at 10 skipped, final at 12 written)", *saved, want)
	}

	a, snap, saved = start(filepath.Join(t.TempDir(), "missing", "run.ckpt"))
	first := a.Checkpoint(5, false, snap)
	if first == nil || !strings.Contains(first.Error(), "engine: generation 5") {
		t.Fatalf("failed save: err = %v, want one naming the engine and generation 5", first)
	}
	for _, final := range []bool{false, true} {
		if err := a.Checkpoint(10, final, snap); err != first {
			t.Fatalf("after a failed save (final=%v): err = %v, want the first failure %v", final, err, first)
		}
	}
	if len(*saved) != 1 {
		t.Fatalf("snapshots built after a failed save: %v", *saved)
	}
}
