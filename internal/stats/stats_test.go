package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.Variance() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.n != 8 {
		t.Fatalf("N = %d", w.n)
	}
	if w.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Sample variance of this classic data set is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if math.Abs(w.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", w.StdDev())
	}
}

func TestWelfordSingleObservation(t *testing.T) {
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatal("single observation statistics wrong")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(100, 25) != 4 {
		t.Fatalf("Speedup = %v", Speedup(100, 25))
	}
	if Speedup(100, 0) != 0 || Speedup(0, 10) != 0 {
		t.Fatal("degenerate speedups should be 0")
	}
}

func TestStrongEfficiency(t *testing.T) {
	// Perfect scaling: 4x the processors, 1/4 the time.
	if got := StrongEfficiency(100, 1024, 25, 4096); math.Abs(got-100) > 1e-9 {
		t.Fatalf("perfect strong efficiency = %v", got)
	}
	// Half-efficient: 4x processors, only 2x faster.
	if got := StrongEfficiency(100, 1024, 50, 4096); math.Abs(got-50) > 1e-9 {
		t.Fatalf("half strong efficiency = %v", got)
	}
	if StrongEfficiency(0, 1, 1, 1) != 0 || StrongEfficiency(1, 1, 0, 1) != 0 || StrongEfficiency(1, 0, 1, 1) != 0 {
		t.Fatal("degenerate efficiency should be 0")
	}
}

func TestWeakEfficiency(t *testing.T) {
	if got := WeakEfficiency(10, 10); got != 100 {
		t.Fatalf("constant-time weak scaling efficiency = %v", got)
	}
	if got := WeakEfficiency(10, 12.5); got != 80 {
		t.Fatalf("weak efficiency = %v, want 80", got)
	}
	if WeakEfficiency(0, 1) != 0 || WeakEfficiency(1, 0) != 0 {
		t.Fatal("degenerate weak efficiency should be 0")
	}
}

func TestPercentile(t *testing.T) {
	data := []float64{5, 1, 3, 2, 4}
	if Percentile(data, 0) != 1 || Percentile(data, 100) != 5 {
		t.Fatal("extreme percentiles wrong")
	}
	if Percentile(data, 50) != 3 {
		t.Fatalf("median = %v", Percentile(data, 50))
	}
	if got := Percentile(data, 25); got != 2 {
		t.Fatalf("25th percentile = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty data percentile should be 0")
	}
	// Input must not be reordered.
	if data[0] != 5 {
		t.Fatal("Percentile modified its input")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Processors", "Time", "Efficiency")
	tab.AddRow(1024, 12.5, 99.9)
	tab.AddRow(262144, time.Duration(1500)*time.Millisecond, 82.0)
	out := tab.String()
	if !strings.Contains(out, "Processors") || !strings.Contains(out, "262144") {
		t.Fatalf("table rendering missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header+separator+2 rows", len(lines))
	}
	if !strings.Contains(lines[1], "---") {
		t.Fatal("missing separator line")
	}
	if !strings.Contains(out, "1.5s") {
		t.Fatalf("duration cell not rendered: %s", out)
	}
}

// Property: Welford's mean matches the naive mean and stays within the
// observed min/max for arbitrary data.
func TestQuickWelfordMatchesNaiveMean(t *testing.T) {
	f := func(xs []float64) bool {
		var w Welford
		sum, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
		count := 0
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			w.Add(x)
			sum += x
			lo, hi = math.Min(lo, x), math.Max(hi, x)
			count++
		}
		if count == 0 {
			return w.n == 0
		}
		naive := sum / float64(count)
		return math.Abs(w.Mean()-naive) < 1e-6*(1+math.Abs(naive)) &&
			lo <= w.Mean()+1e-9 && w.Mean() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strong efficiency at the baseline configuration is always 100%.
func TestQuickStrongEfficiencyBaseline(t *testing.T) {
	f := func(timeSel uint32, procSel uint16) bool {
		tm := float64(timeSel%100000) + 1
		procs := int(procSel) + 1
		return math.Abs(StrongEfficiency(tm, procs, tm, procs)-100) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
