package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of compare.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// compareMain is `evobench compare A.json B.json`: record A is the base,
// B the change.  It exits 1 on any worse verdict or a higher fail_frac.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: evobench compare BASE.json CHANGE.json")
		return 2
	}
	a, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "evobench compare:", err)
		return 2
	}
	b, err := readRecord(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "evobench compare:", err)
		return 2
	}
	if compareRecords(stdout, a, b) {
		return 1
	}
	return 0
}

// compareRecords prints, per workload and end-to-end metric, both medians
// and quartiles, the ratio B/A, the bound and the verdict; then fail_frac
// and every count that differs.  It reports whether the change regressed.
func compareRecords(w io.Writer, a, b record) (regressed bool) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tB/A\tbound\tverdict")
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			fmt.Fprintf(tw, "%s\t(missing from B)\t\t\t\t\t%s\n", wa.Name, verdictUnresolved)
			continue
		}
		for _, d := range e2eMetrics {
			sa, sb := wa.E2E[d.Name], wb.E2E[d.Name]
			v := verdict(d, sa, sb)
			if v == verdictWorse {
				regressed = true
			}
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%.4f\t%s\t%s\n",
				wa.Name, d.Name, d.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				ratio(sb.Median, sa.Median), fmt.Sprintf("%.0f%%", 100*d.Bound), v)
		}
		failVerdict := verdictUnchanged
		if wb.FailFrac > wa.FailFrac {
			failVerdict = verdictWorse
			regressed = true
		}
		fmt.Fprintf(tw, "%s\tfail_frac\t%d/%d\t%d/%d\t\t0\t%s\n", wa.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, failVerdict)
	}
	tw.Flush()
	for _, wa := range a.Workloads {
		wb, ok := findWorkload(b, wa.Name)
		if !ok {
			continue
		}
		for _, d := range layerMetrics {
			va, okA := wa.Layers[d.Name]
			vb, okB := wb.Layers[d.Name]
			if d.Kind == kindCount && okA && okB && va.Value != vb.Value {
				fmt.Fprintf(w, "count differs: %s %s: %.10g -> %.10g %s\n", wa.Name, d.Name, va.Value, vb.Value, d.Unit)
			}
		}
	}
	return regressed
}

func findWorkload(r record, name string) (workloadRecord, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadRecord{}, false
}

// verdict compares change b against base a.  The allowed change is the
// metric's bound times a's median.  When a's own quartile spread exceeds
// that allowance the metric is unresolved, unless every run of b beats
// every run of a.  Otherwise b is worse or better when its median moved by
// more than the allowance, and unchanged when it did not.
func verdict(d metricDef, a, b stat) string {
	allow := d.Bound * math.Abs(a.Median)
	// gain > 0 means b improved on a.
	gain := b.Median - a.Median
	if d.Better == "lower" {
		gain = -gain
	}
	if a.Q3-a.Q1 > allow {
		if beatsAll(d, a.Runs, b.Runs) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case gain < -allow:
		return verdictWorse
	case gain > allow:
		return verdictBetter
	}
	return verdictUnchanged
}

// beatsAll reports whether every run of b is better than every run of a.
func beatsAll(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := b[0], a[0]
	for _, v := range b {
		if d.Better == "lower" {
			worstB = math.Max(worstB, v)
		} else {
			worstB = math.Min(worstB, v)
		}
	}
	for _, v := range a {
		if d.Better == "lower" {
			bestA = math.Min(bestA, v)
		} else {
			bestA = math.Max(bestA, v)
		}
	}
	if d.Better == "lower" {
		return worstB < bestA
	}
	return worstB > bestA
}
