// Package stats provides the small statistical and reporting helpers shared
// by the benchmark harness and the scaling studies: online mean/variance
// accumulation, parallel-efficiency and speedup computations, and fixed-width
// table rendering for the rows the paper's tables and figures report.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Welford accumulates mean and variance online (Welford's algorithm); it is
// numerically stable for long benchmark series.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Speedup returns the classic strong-scaling speedup t_base / t_parallel.
// It returns 0 if the parallel time is not positive.
func Speedup(baseTime, parallelTime float64) float64 {
	if parallelTime <= 0 || baseTime <= 0 {
		return 0
	}
	return baseTime / parallelTime
}

// StrongEfficiency returns the strong-scaling parallel efficiency in percent:
// 100 * (t_base * p_base) / (t_parallel * p_parallel).
func StrongEfficiency(baseTime float64, baseProcs int, parallelTime float64, procs int) float64 {
	if parallelTime <= 0 || baseTime <= 0 || procs <= 0 || baseProcs <= 0 {
		return 0
	}
	ideal := baseTime * float64(baseProcs) / float64(procs)
	return 100 * ideal / parallelTime
}

// WeakEfficiency returns the weak-scaling parallel efficiency in percent:
// 100 * t_base / t_parallel, with the per-processor workload held constant.
func WeakEfficiency(baseTime, parallelTime float64) float64 {
	if parallelTime <= 0 || baseTime <= 0 {
		return 0
	}
	return 100 * baseTime / parallelTime
}

// Percentile returns the p-th percentile (0..100) of the data using linear
// interpolation; the input is not modified.
func Percentile(data []float64, p float64) float64 {
	if len(data) == 0 {
		return 0
	}
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders aligned rows of values, in the spirit of the paper's result
// tables, without any external dependencies.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with four
// significant digits.
func (t *Table) AddRow(values ...interface{}) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = x.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}
	var sb strings.Builder
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
