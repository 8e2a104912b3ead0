package perfmodel

import (
	"testing"

	"evogame/internal/cluster"
)

func bgpModel() *Model {
	return NewModel(cluster.BlueGeneP(), DefaultCalibration())
}

func bgqModel() *Model {
	return NewModel(cluster.BlueGeneQ(), DefaultCalibration())
}

func TestDefaultCalibrationCoversAllDepths(t *testing.T) {
	cal := DefaultCalibration()
	prev := 0.0
	for mem := 1; mem <= 6; mem++ {
		v, ok := cal.SecondsPerRound[mem]
		if !ok || v <= 0 {
			t.Fatalf("missing calibration for memory-%d", mem)
		}
		if v < prev {
			t.Fatalf("per-round cost should not decrease with memory depth (mem %d)", mem)
		}
		prev = v
	}
}

// TestCalibrateMeasuresPositiveCosts checks each depth's cheapest of
// several calibrations: memory-one is timed first in every pass, so a
// single pass charges it start-up costs (cold caches, a descheduled
// thread) that the minimum over passes filters out.
func TestCalibrateMeasuresPositiveCosts(t *testing.T) {
	const passes = 5
	cal := Calibration{SecondsPerRound: map[int]float64{}}
	for i := 0; i < passes; i++ {
		pass, err := Calibrate(3)
		if err != nil {
			t.Fatal(err)
		}
		for mem, v := range pass.SecondsPerRound {
			if best, ok := cal.SecondsPerRound[mem]; !ok || v < best {
				cal.SecondsPerRound[mem] = v
			}
		}
	}
	for mem := 1; mem <= 6; mem++ {
		v := cal.SecondsPerRound[mem]
		if v <= 0 || v > 1e-3 {
			t.Fatalf("implausible calibrated per-round cost for memory-%d: %v s", mem, v)
		}
	}
	// Memory-six rounds must not be cheaper than memory-one rounds by more
	// than measurement noise (state handling only grows with depth).
	if cal.SecondsPerRound[6] < cal.SecondsPerRound[1]*0.5 {
		t.Fatalf("memory-six rounds (%v) implausibly cheaper than memory-one (%v)",
			cal.SecondsPerRound[6], cal.SecondsPerRound[1])
	}
}

func TestCalibrationFallback(t *testing.T) {
	empty := Calibration{}
	if empty.secondsPerRound(3) != DefaultCalibration().SecondsPerRound[3] {
		t.Fatal("missing calibration should fall back to the default")
	}
}

func TestGenerationTimeValidation(t *testing.T) {
	m := bgpModel()
	if _, _, err := m.GenerationTime(100, 99, 1, 1); err == nil {
		t.Fatal("accepted a single processor")
	}
	if _, _, err := m.GenerationTime(0, 10, 16, 1); err == nil {
		t.Fatal("accepted an empty population")
	}
	if _, _, err := m.GenerationTime(100, 99, 16, 9); err == nil {
		t.Fatal("accepted an invalid memory depth")
	}
	if _, _, err := m.GenerationTime(100, 99, 10_000_000, 1); err == nil {
		t.Fatal("accepted more processors than the machine has")
	}
}

func TestGenerationTimeScalesDown(t *testing.T) {
	m := bgpModel()
	c1, _, err := m.GenerationTime(4096, 4095, 1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	c2, _, err := m.GenerationTime(4096, 4095, 2048, 6)
	if err != nil {
		t.Fatal(err)
	}
	if c2 >= c1 {
		t.Fatalf("compute did not shrink with more processors: %v -> %v", c1, c2)
	}
}

func TestStrongScalingShapeMatchesFigure6b(t *testing.T) {
	// The paper: 32,768 SSets, memory-six, 99% efficiency through 16,384
	// processors, 82% at 262,144.
	m := bgpModel()
	procs := []int{1024, 2048, 8192, 16384, 262144}
	points, err := m.StrongScaling(32768, 6, procs)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(procs) {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].Efficiency != 100 {
		t.Fatalf("baseline efficiency = %v", points[0].Efficiency)
	}
	for _, pt := range points[:4] {
		if pt.Efficiency < 98 {
			t.Fatalf("efficiency at %d processors = %.1f%%, want ~99%% (paper: linear scaling through 16K)",
				pt.Processors, pt.Efficiency)
		}
	}
	last := points[len(points)-1]
	if last.Efficiency < 70 || last.Efficiency > 92 {
		t.Fatalf("efficiency at 262,144 processors = %.1f%%, want a dip near the paper's 82%%", last.Efficiency)
	}
	// Speedup must be monotone and the last point sub-linear.
	for i := 1; i < len(points); i++ {
		if points[i].Speedup <= points[i-1].Speedup {
			t.Fatalf("speedup not monotone at %d processors", points[i].Processors)
		}
	}
	if last.Speedup >= float64(last.Processors) {
		t.Fatalf("speedup at the largest scale should be sub-linear: %v", last.Speedup)
	}
	if points[0].Speedup != float64(procs[0]) {
		t.Fatalf("baseline speedup should equal its processor count, got %v", points[0].Speedup)
	}
}

func TestStrongScalingTimeDecreases(t *testing.T) {
	m := bgpModel()
	points, err := m.StrongScaling(32768, 6, []int{1024, 4096, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].SecondsPerGeneration >= points[i-1].SecondsPerGeneration {
			t.Fatalf("per-generation time did not decrease at %d processors", points[i].Processors)
		}
	}
}

func TestWeakScalingShapeMatchesFigure6a(t *testing.T) {
	// The paper: 4,096 SSets per processor, memory-six, >=99% efficiency up
	// to 294,912 Blue Gene/P processors.
	m := bgpModel()
	procs := []int{1024, 4096, 16384, 65536, 294912}
	points, err := m.WeakScaling(4096, 4096, 6, procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Efficiency < 99 {
			t.Fatalf("weak scaling efficiency at %d processors = %.2f%%, want >= 99%%", pt.Processors, pt.Efficiency)
		}
		if pt.Efficiency > 100.0001 {
			t.Fatalf("weak scaling efficiency exceeds 100%%: %v", pt.Efficiency)
		}
	}
	// Per-generation time should stay essentially flat (the paper reports a
	// fluctuation of at most one second over the full sweep).
	base := points[0].SecondsPerGeneration
	last := points[len(points)-1].SecondsPerGeneration
	if last > base*1.01 {
		t.Fatalf("weak scaling time grew by more than 1%%: %v -> %v", base, last)
	}
}

func TestWeakScalingOnBlueGeneQ(t *testing.T) {
	// The paper's BG/Q runs reach 16,384 tasks (512 nodes x 32 tasks).
	m := bgqModel()
	points, err := m.WeakScaling(4096, 4096, 6, []int{1024, 4096, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range points {
		if pt.Efficiency < 99 {
			t.Fatalf("BG/Q weak scaling efficiency at %d = %.2f%%", pt.Processors, pt.Efficiency)
		}
	}
}

func TestWeakScalingValidation(t *testing.T) {
	m := bgpModel()
	if _, err := m.WeakScaling(0, 10, 1, []int{16}); err == nil {
		t.Fatal("accepted zero SSets per processor")
	}
	if _, err := m.WeakScaling(10, 10, 1, nil); err == nil {
		t.Fatal("accepted an empty processor list")
	}
	if _, err := m.StrongScaling(100, 1, nil); err == nil {
		t.Fatal("accepted an empty processor list")
	}
}

func TestRatioTableShapeMatchesTableVI(t *testing.T) {
	// Table VI: parallel efficiency is poor when processors out-number SSets
	// (R <= 1) and essentially perfect once each processor has at least two
	// SSets to overlap the global synchronisation with.
	m := bgpModel()
	ratios := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8}
	points, err := m.RatioTable(ratios, 2048, 6, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(ratios) {
		t.Fatalf("got %d points", len(points))
	}
	byRatio := map[float64]float64{}
	for _, p := range points {
		byRatio[p.Ratio] = p.Efficiency
		if p.Efficiency <= 0 || p.Efficiency > 100 {
			t.Fatalf("efficiency out of range at R=%v: %v", p.Ratio, p.Efficiency)
		}
	}
	if byRatio[0.5] > 65 {
		t.Fatalf("R=0.5 efficiency = %.1f%%, want a severe drop (paper: 50%%)", byRatio[0.5])
	}
	if byRatio[1] > 75 {
		t.Fatalf("R=1 efficiency = %.1f%%, want a drop (paper: 55%%)", byRatio[1])
	}
	if byRatio[2] < 95 {
		t.Fatalf("R=2 efficiency = %.1f%%, want ~99.7%%", byRatio[2])
	}
	if byRatio[8] < 99 {
		t.Fatalf("R=8 efficiency = %.1f%%, want ~100%%", byRatio[8])
	}
	// Efficiency must be non-decreasing in R.
	for i := 1; i < len(points); i++ {
		if points[i].Efficiency+1e-9 < points[i-1].Efficiency {
			t.Fatalf("efficiency decreased from R=%v to R=%v", points[i-1].Ratio, points[i].Ratio)
		}
	}
}

func TestRatioTableValidation(t *testing.T) {
	m := bgpModel()
	if _, err := m.RatioTable([]float64{-1}, 100, 1, 64); err == nil {
		t.Fatal("accepted a negative ratio")
	}
	if _, err := m.RatioTable([]float64{1}, 100, 1, 1); err == nil {
		t.Fatal("accepted a single processor")
	}
}

func TestMemorySweepShapeMatchesFigure5(t *testing.T) {
	// Figure 5: 2,048 SSets, 20 generations, 2,048 processors; runtime rises
	// with memory depth and is dominated by computation, with communication
	// a small and roughly constant share.
	m := bgpModel()
	points, err := m.MemorySweep(2048, 20, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d memory depths", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].ComputeSeconds < points[i-1].ComputeSeconds {
			t.Fatalf("compute time decreased from memory-%d to memory-%d", points[i-1].MemorySteps, points[i].MemorySteps)
		}
	}
	for _, p := range points {
		if p.ComputeSeconds <= 0 || p.CommSeconds <= 0 {
			t.Fatalf("memory-%d has non-positive times: %+v", p.MemorySteps, p)
		}
		if p.CommSeconds > p.ComputeSeconds {
			t.Fatalf("memory-%d communication exceeds computation; Figure 5 shows compute-dominated runs", p.MemorySteps)
		}
	}
	// Memory-six must be visibly more expensive than memory-one.
	if points[5].ComputeSeconds < points[0].ComputeSeconds*1.5 {
		t.Fatalf("memory-six compute (%v) not sufficiently larger than memory-one (%v)",
			points[5].ComputeSeconds, points[0].ComputeSeconds)
	}
}

func TestThreadsReduceComputeTime(t *testing.T) {
	m := bgqModel()
	serial, _, err := m.GenerationTime(4096, 4095, 1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	m.ThreadsPerTask = 2
	threaded, _, err := m.GenerationTime(4096, 4095, 1024, 6)
	if err != nil {
		t.Fatal(err)
	}
	if threaded >= serial {
		t.Fatalf("2 threads per task did not reduce compute: %v vs %v", threaded, serial)
	}
}

func TestSplitOverheadAppliesBelowOneSSetPerProc(t *testing.T) {
	m := bgpModel()
	// 1,024 SSets on 4,096 processors: R = 0.25.
	compute, _, err := m.GenerationTime(1024, 1023, 4096, 6)
	if err != nil {
		t.Fatal(err)
	}
	ideal := 1024.0 / 4096.0 * 1023 * 200 * DefaultCalibration().SecondsPerRound[6]
	if compute <= ideal {
		t.Fatalf("split SSets should cost more than the ideal division: %v vs %v", compute, ideal)
	}
}

func BenchmarkStrongScalingSweep(b *testing.B) {
	m := bgpModel()
	procs := []int{1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144}
	for i := 0; i < b.N; i++ {
		if _, err := m.StrongScaling(32768, 6, procs); err != nil {
			b.Fatal(err)
		}
	}
}
