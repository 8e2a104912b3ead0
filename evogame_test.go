package evogame

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestSimulateBasic(t *testing.T) {
	res, err := Simulate(context.Background(), SimulationConfig{
		NumSSets:      16,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,
		MutationRate:  0.2,
		Beta:          1,
		Generations:   100,
		Seed:          7,
		SampleEvery:   25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generations != 100 {
		t.Fatalf("generations = %d", res.Generations)
	}
	if len(res.FinalStrategies) != 16 {
		t.Fatalf("final table has %d strategies", len(res.FinalStrategies))
	}
	for i, s := range res.FinalStrategies {
		if len(s) != 4 {
			t.Fatalf("strategy %d has %d states, want 4 for memory-one", i, len(s))
		}
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	if res.PCEvents == 0 {
		t.Fatal("no PC events with rate 1")
	}
	if res.GamesPlayed == 0 {
		t.Fatal("no games played")
	}
}

func TestSimulateRejectsBadConfig(t *testing.T) {
	if _, err := Simulate(context.Background(), SimulationConfig{NumSSets: 1, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1}); err == nil {
		t.Fatal("accepted a single SSet")
	}
	if _, err := Simulate(context.Background(), SimulationConfig{
		NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1,
		InitialStrategies: []string{"0101"},
	}); err == nil {
		t.Fatal("accepted a short initial strategy list")
	}
	if _, err := Simulate(context.Background(), SimulationConfig{
		NumSSets: 2, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1,
		InitialStrategies: []string{"01x1", "0000"},
	}); err == nil {
		t.Fatal("accepted an invalid strategy string")
	}
}

// TestNoiseOutsideUnitIntervalRejected: both engines refuse a Noise outside
// [0,1] — NaN included, which fails every comparison and used to run as a
// noiseless simulation — with an error naming the field.
func TestNoiseOutsideUnitIntervalRejected(t *testing.T) {
	for _, noise := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1)} {
		_, err := Simulate(context.Background(), SimulationConfig{
			NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10, Generations: 2, Noise: noise,
		})
		if err == nil || !strings.Contains(err.Error(), "Noise") {
			t.Errorf("Simulate with Noise=%v: err = %v, want an error naming Noise", noise, err)
		}
		_, perr := SimulateParallel(ParallelConfig{
			Ranks: 2, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10, Generations: 2, Noise: noise,
		})
		if err != nil && (perr == nil || perr.Error() != err.Error()) {
			t.Errorf("SimulateParallel with Noise=%v: err = %v, want the serial engine's %v", noise, perr, err)
		}
	}
}

// TestNaNRatesRejected: both engines refuse a NaN PCRate, MutationRate or
// Beta — NaN fails every range check, and used to run silently with no
// learning, no mutation or no adoption — and an infinite Beta, at which
// the Fermi probability of a fitness tie is NaN, so a tie never adopted,
// with an error naming the field.
func TestNaNRatesRejected(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		field         string
		pc, mut, beta float64
	}{
		{"PCRate", nan, 0, 0},
		{"MutationRate", 0, nan, 0},
		{"Beta", 0, 0, nan},
		{"Beta", 0, 0, math.Inf(1)},
		{"Beta", 0, 0, math.Inf(-1)},
	} {
		_, err := Simulate(context.Background(), SimulationConfig{
			NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10, Generations: 2,
			PCRate: tc.pc, MutationRate: tc.mut, Beta: tc.beta,
		})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Simulate with %+v: err = %v, want an error naming %s", tc, err, tc.field)
		}
		_, err = SimulateParallel(ParallelConfig{
			Ranks: 2, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10, Generations: 2,
			PCRate: tc.pc, MutationRate: tc.mut, Beta: tc.beta,
		})
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("SimulateParallel with %+v: err = %v, want an error naming %s", tc, err, tc.field)
		}
	}
}

func TestSimulateInitialStrategiesAndWSLSFraction(t *testing.T) {
	wsls, err := NamedStrategy("wsls", 1)
	if err != nil {
		t.Fatal(err)
	}
	alld, err := NamedStrategy("alld", 1)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]string, 8)
	for i := range initial {
		if i < 6 {
			initial[i] = wsls
		} else {
			initial[i] = alld
		}
	}
	res, err := Simulate(context.Background(), SimulationConfig{
		NumSSets:          8,
		AgentsPerSSet:     1,
		MemorySteps:       1,
		Rounds:            50,
		PCRate:            -1,
		MutationRate:      -1,
		Generations:       10,
		InitialStrategies: initial,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WSLSFraction() != 0.75 {
		t.Fatalf("WSLS fraction = %v, want 0.75", res.WSLSFraction())
	}
	if res.Samples[len(res.Samples)-1].AllDFraction != 0.25 {
		t.Fatal("AllD fraction wrong")
	}
}

func TestSimulateParallelMatchesSerial(t *testing.T) {
	common := SimulationConfig{
		NumSSets:      10,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        50,
		PCRate:        1,
		MutationRate:  0.3,
		Beta:          1,
		Generations:   50,
		Seed:          11,
	}
	serial, err := Simulate(context.Background(), common)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SimulateParallel(ParallelConfig{
		Ranks:             4,
		NumSSets:          common.NumSSets,
		AgentsPerSSet:     common.AgentsPerSSet,
		MemorySteps:       common.MemorySteps,
		Rounds:            common.Rounds,
		PCRate:            common.PCRate,
		MutationRate:      common.MutationRate,
		Beta:              common.Beta,
		Generations:       common.Generations,
		Seed:              common.Seed,
		OptimizationLevel: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(par.FinalStrategies) != len(serial.FinalStrategies) {
		t.Fatal("table sizes differ")
	}
	for i := range par.FinalStrategies {
		if par.FinalStrategies[i] != serial.FinalStrategies[i] {
			t.Fatalf("parallel and serial diverge at SSet %d", i)
		}
	}
	if par.PCEvents != serial.PCEvents || par.Mutations != serial.Mutations || par.Adoptions != serial.Adoptions {
		t.Fatal("event counts differ between engines")
	}
	if par.TotalGames == 0 || par.WallClockSeconds <= 0 {
		t.Fatal("parallel run did not report work")
	}
	if len(par.Ranks) != 4 {
		t.Fatalf("rank summaries = %d", len(par.Ranks))
	}
}

func TestSimulateParallelValidation(t *testing.T) {
	if _, err := SimulateParallel(ParallelConfig{Ranks: 1, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1}); err == nil {
		t.Fatal("accepted one rank")
	}
	if _, err := SimulateParallel(ParallelConfig{
		Ranks: 3, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1, OptimizationLevel: 7,
	}); err == nil {
		t.Fatal("accepted an invalid optimization level")
	}
	if _, err := SimulateParallel(ParallelConfig{
		Ranks: 3, NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Generations: 1,
		InitialStrategies: []string{"0101"},
	}); err == nil {
		t.Fatal("accepted a short initial strategy list")
	}
}

func TestNamedStrategy(t *testing.T) {
	wsls, err := NamedStrategy("wsls", 1)
	if err != nil {
		t.Fatal(err)
	}
	if wsls != "0110" {
		t.Fatalf("WSLS = %q", wsls)
	}
	tft, err := NamedStrategy("tft", 1)
	if err != nil {
		t.Fatal(err)
	}
	if tft != "0101" {
		t.Fatalf("TFT = %q", tft)
	}
	if _, err := NamedStrategy("unknown", 1); err == nil {
		t.Fatal("accepted an unknown strategy")
	}
	if _, err := NamedStrategy("gtft", 1); err == nil {
		t.Fatal("accepted gtft, which is not a built-in strategy")
	}
}

func TestStrategySpaceSize(t *testing.T) {
	states, log2, err := StrategySpaceSize(6)
	if err != nil {
		t.Fatal(err)
	}
	if states != 4096 || log2 != 4096 {
		t.Fatalf("memory-six space = (%d states, 2^%d strategies)", states, log2)
	}
	if _, _, err := StrategySpaceSize(0); err == nil {
		t.Fatal("accepted memory 0")
	}
	if _, _, err := StrategySpaceSize(7); err == nil {
		t.Fatal("accepted memory 7")
	}
}

func TestStrategyBytes(t *testing.T) {
	n, err := StrategyBytes(6)
	if err != nil {
		t.Fatal(err)
	}
	if n != 512 {
		t.Fatalf("memory-six strategy = %d bytes", n)
	}
	if _, err := StrategyBytes(0); err == nil {
		t.Fatal("accepted memory 0")
	}
}

func TestClusterStrategies(t *testing.T) {
	var strategies []string
	for i := 0; i < 30; i++ {
		strategies = append(strategies, "0110")
	}
	for i := 0; i < 10; i++ {
		strategies = append(strategies, "1111")
	}
	clusters, err := ClusterStrategies(strategies, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters", len(clusters))
	}
	if clusters[0].Size < clusters[1].Size {
		t.Fatal("clusters not sorted largest first")
	}
	if clusters[0].Representative != "0110" || clusters[0].Fraction != 0.75 {
		t.Fatalf("dominant cluster = %+v", clusters[0])
	}
	if clusters[1].Representative != "1111" {
		t.Fatalf("minor cluster = %+v", clusters[1])
	}
}

func TestClusterStrategiesValidation(t *testing.T) {
	if _, err := ClusterStrategies(nil, 2, 1); err == nil {
		t.Fatal("accepted no strategies")
	}
	if _, err := ClusterStrategies([]string{"0101", "01"}, 1, 1); err == nil {
		t.Fatal("accepted ragged strategies")
	}
	if _, err := ClusterStrategies([]string{"01x1"}, 1, 1); err == nil {
		t.Fatal("accepted invalid characters")
	}
}

func TestPredictStrongScalingFacade(t *testing.T) {
	points, err := PredictStrongScaling(ScalingOptions{}, 32768, 6, []int{1024, 16384, 262144})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].EfficiencyPercent != 100 {
		t.Fatal("baseline efficiency must be 100")
	}
	if points[1].EfficiencyPercent < 98 {
		t.Fatalf("16K efficiency = %v", points[1].EfficiencyPercent)
	}
	if points[2].EfficiencyPercent >= points[1].EfficiencyPercent {
		t.Fatal("largest scale should dip below the mid-range efficiency")
	}
}

func TestPredictWeakScalingFacade(t *testing.T) {
	points, err := PredictWeakScaling(ScalingOptions{Machine: MachineBlueGeneQ}, 4096, 4096, 6, []int{1024, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.EfficiencyPercent < 99 {
			t.Fatalf("weak scaling efficiency = %v", p.EfficiencyPercent)
		}
	}
}

func TestScalingFacadeErrors(t *testing.T) {
	if _, err := PredictStrongScaling(ScalingOptions{Machine: "cray"}, 100, 1, []int{16}); err == nil {
		t.Fatal("accepted an unknown machine")
	}
	if _, err := PredictWeakScaling(ScalingOptions{}, 0, 10, 1, []int{16}); err == nil {
		t.Fatal("accepted zero SSets per processor")
	}
	if _, err := RatioTable(ScalingOptions{}, []float64{-1}, 10, 1, 16); err == nil {
		t.Fatal("accepted a negative ratio")
	}
	if _, err := MemorySweep(ScalingOptions{}, 0, 1, 16); err == nil {
		t.Fatal("accepted an empty population")
	}
}

func TestRatioTableFacade(t *testing.T) {
	rows, err := RatioTable(ScalingOptions{}, []float64{0.5, 1, 2, 4, 8}, 2048, 6, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].EfficiencyPercent >= rows[2].EfficiencyPercent {
		t.Fatal("R=0.5 should be less efficient than R=2")
	}
}

// TestRatioTableRejectsBadArguments: a ratio that is not a positive
// finite number (NaN fails every comparison) and a negative opponent count
// are refused with an error naming the argument, not turned into NaN or
// negative efficiencies.
func TestRatioTableRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ratio     float64
		opponents int
	}{
		{"ratio", math.NaN(), 2048},
		{"ratio", math.Inf(1), 2048},
		{"ratio", 0, 2048},
		{"opponentsPerSSet", 2, -1},
	} {
		_, err := RatioTable(ScalingOptions{}, []float64{1, tc.ratio}, tc.opponents, 6, 2048)
		if err == nil || !strings.Contains(err.Error(), tc.name) {
			t.Errorf("RatioTable(ratio %v, opponents %d): err = %v, want an error naming %s", tc.ratio, tc.opponents, err, tc.name)
		}
	}
}

func TestMemorySweepFacade(t *testing.T) {
	points, err := MemorySweep(ScalingOptions{}, 2048, 20, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points", len(points))
	}
	if points[5].ComputeSeconds <= points[0].ComputeSeconds {
		t.Fatal("memory-six should cost more than memory-one")
	}
}

func TestCheckMemoryCapacity(t *testing.T) {
	cap6, err := CheckMemoryCapacity(MachineBlueGeneP, 32768, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if cap6.MaxMemorySteps != 6 || !cap6.FitsAtMemorySix {
		t.Fatalf("BG/P capacity for the paper's strong-scaling population: %+v", cap6)
	}
	if cap6.MaxTotalSSets != 32768 {
		t.Fatalf("max population on 1024 BG/P processors = %d", cap6.MaxTotalSSets)
	}
	if _, err := CheckMemoryCapacity("cray", 100, 10); err == nil {
		t.Fatal("accepted an unknown machine")
	}
	if _, err := CheckMemoryCapacity(MachineBlueGeneP, 0, 10); err == nil {
		t.Fatal("accepted an empty population")
	}
}
