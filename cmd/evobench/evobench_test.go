package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// asCommandEnv makes the test binary act as the evobench command, so the
// quick run can re-execute it as its child processes.
const asCommandEnv = "EVOBENCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommandEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// repoBenchmarkFile is the repository's BENCHMARK.json.
var repoBenchmarkFile = filepath.Join("..", "..", benchmarkFileName)

func mustReadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := readBenchmarkFile(repoBenchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func (b benchmarkFile) names() (workloads, e2e, layers []string) {
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	return workloads, e2e, layers
}

// checkRecordNames asserts that a record names exactly the workloads and
// metrics of BENCHMARK.json, in both directions.
func checkRecordNames(t *testing.T, rec record, b benchmarkFile) {
	t.Helper()
	wantW, wantE, wantL := b.names()
	var gotW []string
	for _, w := range rec.Workloads {
		gotW = append(gotW, w.Name)
		if got := sortedKeys(w.E2E); !reflect.DeepEqual(got, sortedCopy(wantE)) {
			t.Errorf("%s: e2e metrics %v, BENCHMARK.json has %v", w.Name, got, wantE)
		}
		if got := sortedKeys(w.Layers); !reflect.DeepEqual(got, sortedCopy(wantL)) {
			t.Errorf("%s: layer metrics %v, BENCHMARK.json has %v", w.Name, got, wantL)
		}
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads %v, BENCHMARK.json has %v", gotW, wantW)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return sortedCopy(keys)
}

func sortedCopy(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// TestCatalogueMatchesBenchmarkFile keeps the compiled-in catalogue, which
// compare judges by, identical to BENCHMARK.json, and checks that a
// changed bound or a missing metric in the file is caught.
func TestCatalogueMatchesBenchmarkFile(t *testing.T) {
	if err := catalogueDiff(repoBenchmarkFile); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(repoBenchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]any
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	e2e := file["end_to_end"].([]any)
	e2e[0].(map[string]any)["bound"] = 0.5
	file["per_layer"] = file["per_layer"].([]any)[1:]
	changed := filepath.Join(t.TempDir(), benchmarkFileName)
	data, err = json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(changed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = catalogueDiff(changed)
	if err == nil || !strings.Contains(err.Error(), "Bound:0.5") || !strings.Contains(err.Error(), layerMetrics[0].Name) {
		t.Errorf("a changed bound and a dropped per-layer metric gave %v", err)
	}
}

// TestQuickRun runs the whole command at -quick: every workload at about a
// hundredth of its length, one repeat, the traced runs, the probes and the
// oracles, with the test binary standing in for the child processes.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	t.Setenv(asCommandEnv, "1")
	dir := t.TempDir()
	out := filepath.Join(dir, "quick.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out, "-spans", spans}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit status %d:\n%s", code, stderr.String())
	}
	rec, err := readRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	checkRecordNames(t, rec, mustReadBenchmarkFile(t))
	for _, w := range rec.Workloads {
		if w.FailFrac != 0 {
			t.Errorf("%s: fail_frac %v: %v", w.Name, w.FailFrac, w.Failures)
		}
	}
	data, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"population.step", "ensemble.run", "parallel.run", "probe.game"} {
		if !bytes.Contains(data, []byte(`"name":"`+name+`"`)) {
			t.Errorf("spans file has no %s span", name)
		}
	}
}

// TestFingerprints: the same seed reproduces a workload's fingerprint and
// another seed changes it.
func TestFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	ctx := context.Background()
	for _, w := range workloads {
		dir := t.TempDir()
		gens := max(1, w.length(true)/10)
		var prints []string
		for _, seed := range []uint64{1, 1, 2} {
			out, err := w.run(ctx, seed, gens, dir)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			prints = append(prints, fingerprint(out.runs))
		}
		if prints[0] != prints[1] {
			t.Errorf("%s: seed 1 gave fingerprints %s and %s", w.name, prints[0], prints[1])
		}
		if prints[0] == prints[2] {
			t.Errorf("%s: seeds 1 and 2 share fingerprint %s", w.name, prints[0])
		}
	}
}

// TestQuartilesMatchPython: spreads are judged with Python's
// statistics.quantiles(xs, n=4); the expected values are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		m, q1, q3 float64
	}{
		{[]float64{1, 2, 3}, 2, 1, 3},
		{[]float64{5, 1, 4, 2}, 3, 1.25, 4.75},
		{[]float64{3, 9, 1, 7, 5, 2}, 4, 1.75, 7.5},
		{[]float64{1.5, 2.5}, 2, 1.25, 2.75},
	} {
		if m, q1, q3 := quartiles(c.xs); m != c.m || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; Python gives %v, %v, %v", c.xs, m, q1, q3, c.m, c.q1, c.q3)
		}
	}
}

// statAround builds a stat over the three runs lo, median and hi.
func statAround(median, lo, hi float64) stat {
	runs := []float64{lo, median, hi}
	m, q1, q3 := quartiles(runs)
	return stat{Median: m, Q1: q1, Q3: q3, N: len(runs), Runs: runs}
}

// e2eMetric returns the catalogue entry with the given name.
func e2eMetric(t *testing.T, name string) metricDef {
	for _, d := range e2eMetrics {
		if d.Name == name {
			return d
		}
	}
	t.Fatalf("no end-to-end metric %q", name)
	return metricDef{}
}

func TestCompareVerdicts(t *testing.T) {
	gens := e2eMetric(t, "gens_per_s")
	setup := e2eMetric(t, "setup_s")
	b := gens.Bound
	tight := statAround(100, 100*(1-b/4), 100*(1+b/4))
	loose := statAround(100, 100*(1-2*b), 100*(1+2*b))
	cases := []struct {
		name string
		d    metricDef
		a, b stat
		want string
	}{
		{"within the bound", gens, tight, statAround(100*(1-b/2), 100*(1-b/2), 100*(1-b/2)), verdictUnchanged},
		{"slower beyond the bound", gens, tight, statAround(100*(1-2*b), 100*(1-2*b), 100*(1-2*b)), verdictWorse},
		{"faster beyond the bound", gens, tight, statAround(100*(1+2*b), 100*(1+2*b), 100*(1+2*b)), verdictBetter},
		{"base spread wider than the bound", gens, loose, statAround(100*(1-3*b), 100*(1-3*b), 100*(1-3*b)), verdictUnresolved},
		{"wide base, but every run beats it", gens, loose, statAround(100*(1+3*b), 100*(1+3*b), 100*(1+3*b)), verdictBetter},
		{"lower is better", setup, statAround(1, 1, 1), statAround(2, 2, 2), verdictWorse},
		{"lower is better, within the bound", setup, statAround(1, 1, 1), statAround(1+setup.Bound/2, 1+setup.Bound/2, 1+setup.Bound/2), verdictUnchanged},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareRecordsExitsOnRegression(t *testing.T) {
	base := workloadRecord{Name: "w", Attempted: 10, E2E: map[string]stat{}}
	for _, d := range e2eMetrics {
		base.E2E[d.Name] = statAround(1, 1, 1)
	}
	same := base
	failing := base
	failing.Failed, failing.FailFrac = 1, 0.1
	slower := base
	slower.E2E = map[string]stat{}
	for k, v := range base.E2E {
		slower.E2E[k] = v
	}
	slower.E2E["gens_per_s"] = statAround(0.5, 0.5, 0.5)
	for _, c := range []struct {
		name string
		b    workloadRecord
		want bool
	}{{"identical", same, false}, {"higher fail_frac", failing, true}, {"slower", slower, true}} {
		var out strings.Builder
		got := compareRecords(&out, record{Workloads: []workloadRecord{base}}, record{Workloads: []workloadRecord{c.b}})
		if got != c.want {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestBaselineRecord checks the committed first default-settings record:
// it parses, carries its environment and names every BENCHMARK.json
// workload and metric.  It makes no assertion on any measured value.
func TestBaselineRecord(t *testing.T) {
	rec, err := readRecord(filepath.Join("testdata", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Env == nil || rec.Env.GoVersion == "" || rec.Env.CPUModel == "" || rec.Env.NumCPU == 0 {
		t.Errorf("baseline env incomplete: %+v", rec.Env)
	}
	checkRecordNames(t, rec, mustReadBenchmarkFile(t))
}
