package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"evogame/internal/stats"
)

// recordSchema names the layout of the JSON record.
const recordSchema = "evobench/1"

// traceEvery interleaves the traced runs with the e2e repeats, one traced
// child after every traceEvery-th e2e child, so both see the same machine.
const traceEvery = 4

// Child time limits: a child is killed and counted as failed after ten
// times the expected length of its work; the first traced child also runs
// the probes.
const (
	expectedRepeat = 5 * time.Second // a repeat at the default length, set-ups included
	expectedProbes = 4 * time.Second
)

// record is the JSON report of one invocation.
type record struct {
	Schema    string           `json:"schema"`
	Env       *environment     `json:"env,omitempty"`
	Workloads []workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's result.  E2E holds one stat per
// end-to-end metric over the repeats; Layers the per-layer metrics of the
// traced runs.  Attempted counts children and oracle checks, Failed those
// that errored, timed out or disagreed.
type workloadRecord struct {
	Name        string                `json:"name"`
	Size        string                `json:"size"`
	Generations int                   `json:"generations"`
	Replicates  int                   `json:"replicates"`
	Fingerprint string                `json:"fingerprint"`
	Attempted   int                   `json:"attempted"`
	Failed      int                   `json:"failed"`
	FailFrac    float64               `json:"fail_frac"`
	Failures    []string              `json:"failures,omitempty"`
	E2E         map[string]stat       `json:"e2e"`
	Layers      map[string]layerValue `json:"layers,omitempty"`
}

// stat summarises one end-to-end metric over the repeats.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Runs   []float64 `json:"runs"`
}

// layerValue is one per-layer metric.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"`
}

// environment records what is needed to measure the same thing again.
type environment struct {
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit,omitempty"`
	Dirty      *bool   `json:"dirty,omitempty"`
	Seed       uint64  `json:"seed"`
	Repeats    int     `json:"repeats"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
}

// childProcs is the GOMAXPROCS of every child, and of the parent itself:
// at most two, never more than the machine has.
func childProcs() int {
	return min(2, runtime.NumCPU())
}

// benchMain runs the selected workloads, prints the table on stderr and
// writes the record and, for a single workload, the one-line summary.
func benchMain(o options, stdout, stderr io.Writer) int {
	// Run from the repository root, as run.sh does, the benchmark refuses
	// to measure against a BENCHMARK.json that describes other metrics.
	if _, err := os.Stat(benchmarkFileName); err == nil {
		if err := catalogueDiff(benchmarkFileName); err != nil {
			fmt.Fprintln(stderr, "evobench:", err)
			return 1
		}
	}
	procs := childProcs()
	runtime.GOMAXPROCS(procs)
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "evobench:", err)
		return 1
	}
	rec := record{Schema: recordSchema}
	var spans []span
	for _, w := range o.selected() {
		wr, sp := benchWorkload(exe, w, o, procs, stderr)
		rec.Workloads = append(rec.Workloads, wr)
		spans = append(spans, sp...)
	}
	writeTable(stderr, rec)
	if o.Spans != "" {
		if err := writeSpans(o.Spans, spans); err != nil {
			fmt.Fprintln(stderr, "evobench:", err)
			return 1
		}
	}
	if o.Out != "" || o.Workload == "" {
		env := captureEnv(o, procs)
		rec.Env = &env
		if err := writeRecord(o.Out, rec, stdout); err != nil {
			fmt.Fprintln(stderr, "evobench:", err)
			return 1
		}
	}
	if o.Workload != "" {
		if err := writeSummary(stdout, rec.Workloads[0], o.Trace == 1); err != nil {
			fmt.Fprintln(stderr, "evobench:", err)
			return 1
		}
	}
	return 0
}

// benchWorkload runs one workload: e2e repeats in fresh children until
// both -repeats and -seconds are reached, traced children interleaved
// with them, and the reference oracle.  Every child must reproduce the
// first child's fingerprint.
func benchWorkload(exe string, w workload, o options, procs int, log io.Writer) (workloadRecord, []span) {
	gens := w.length(o.Quick)
	wr := workloadRecord{Name: w.name, Size: w.size, Generations: gens, Replicates: max(1, w.replicates)}
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		wr.Failed++
		wr.Failures = append(wr.Failures, msg)
		fmt.Fprintf(log, "evobench: %s: %s\n", w.name, msg)
	}
	spawn := func(role string, probes bool) (childResult, bool) {
		wr.Attempted++
		r, err := runChild(exe, w, o, procs, role, probes)
		if err != nil {
			fail("%s child: %v", role, err)
			return r, false
		}
		if wr.Fingerprint == "" {
			wr.Fingerprint = r.Fingerprint
		} else if r.Fingerprint != wr.Fingerprint {
			fail("%s child fingerprint %s, first child %s", role, r.Fingerprint, wr.Fingerprint)
			return r, false
		}
		return r, true
	}

	// A warm-up child at the -quick length first: the first process after
	// a build pays cold caches.  Its measurements are dropped.
	if !o.Quick {
		wr.Attempted++
		warm := o
		warm.Quick = true
		if _, err := runChild(exe, w, warm, procs, "run", false); err != nil {
			fail("warm-up child: %v", err)
		}
	}
	// Repeats go on while -repeats is not reached, or while one more round
	// (an e2e child, and a traced child every traceEvery rounds) still fits
	// into -seconds at the mean round length so far.  Traced children count
	// into the budget, so a run with -trace 1 lasts no longer.
	var runs, traced []childResult
	var measured time.Duration
	for i := 0; i < o.Repeats || measured.Seconds()*float64(i+1)/float64(i) <= o.Seconds; i++ {
		start := now()
		if r, ok := spawn("run", false); ok {
			runs = append(runs, r)
		}
		if o.Trace == 1 && i%traceEvery == 0 {
			if r, ok := spawn("trace", len(traced) == 0); ok {
				traced = append(traced, r)
			}
		}
		measured += now().Sub(start)
	}

	wr.Attempted++
	if err := runOracle(w, o.Seed, gens); err != nil {
		fail("oracle: %v", err)
	}
	wr.FailFrac = ratio(float64(wr.Failed), float64(wr.Attempted))
	wr.E2E = e2eStats(runs)
	var spans []span
	if len(traced) > 0 {
		wr.Layers, spans = layerValues(traced, runs)
	}
	return wr, spans
}

// runOracle runs the workload's reference oracle with its checkpoints in a
// temporary directory.
func runOracle(w workload, seed uint64, gens int) error {
	dir, err := os.MkdirTemp("", "evobench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return w.oracle(context.Background(), seed, gens, dir)
}

// runChild runs one child process to completion and decodes its result.
func runChild(exe string, w workload, o options, procs int, role string, probes bool) (childResult, error) {
	limit := 10 * expectedRepeat
	if probes {
		limit += 10 * expectedProbes
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	args := []string{"child", "-role", role, "-workload", w.name,
		"-seed", strconv.FormatUint(o.Seed, 10), "-quick=" + strconv.FormatBool(o.Quick),
		"-probes=" + strconv.FormatBool(probes)}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ctx.Err() != nil {
		return childResult{}, fmt.Errorf("timed out after %v", limit)
	}
	if err != nil {
		return childResult{}, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var r childResult
	if err := json.Unmarshal(out, &r); err != nil {
		return childResult{}, fmt.Errorf("decoding child output: %w", err)
	}
	return r, nil
}

// e2eStats summarises the e2e repeats per metric.
func e2eStats(runs []childResult) map[string]stat {
	per := map[string][]float64{}
	for _, r := range runs {
		per["gens_per_s"] = append(per["gens_per_s"], ratio(float64(r.Generations), r.WallSeconds))
		per["setup_s"] = append(per["setup_s"], r.SetupSeconds)
		per["cpu_s"] = append(per["cpu_s"], r.CPUSeconds)
		per["max_rss_mb"] = append(per["max_rss_mb"], r.MaxRSSMiB)
		per["alloc_mb"] = append(per["alloc_mb"], r.AllocMiB)
	}
	out := map[string]stat{}
	for _, d := range e2eMetrics {
		vals := per[d.Name]
		m, q1, q3 := quartiles(vals)
		out[d.Name] = stat{Unit: d.Unit, Median: m, Q1: q1, Q3: q3, N: len(vals), Runs: vals}
	}
	return out
}

// layerValues assembles the per-layer metrics: counts and probes from the
// child that ran the probes, span statistics pooled over every traced
// child, and the tracing overhead against the e2e repeats.
func layerValues(traced, runs []childResult) (map[string]layerValue, []span) {
	vals := map[string]float64{}
	for _, t := range traced {
		if t.Probed {
			vals = t.Layers
			break
		}
	}
	var spans []span
	var walls, e2eWalls []float64
	for i, t := range traced {
		for _, s := range t.Spans {
			s.Run = i
			spans = append(spans, s)
		}
		walls = append(walls, t.WallSeconds)
	}
	for _, r := range runs {
		e2eWalls = append(e2eWalls, r.WallSeconds)
	}
	steps := durations(spans, "population.step")
	vals["population.step_p50_us"] = stats.Percentile(steps, 50)
	vals["population.step_p99_us"] = stats.Percentile(steps, 99)
	vals["population.sample_us"] = median(durations(spans, "population.sample"))
	if len(e2eWalls) > 0 {
		vals["trace.overhead"] = ratio(median(walls), median(e2eWalls)) - 1
	}
	out := map[string]layerValue{}
	for _, d := range layerMetrics {
		out[d.Name] = layerValue{Value: vals[d.Name], Unit: d.Unit, Kind: d.Kind}
	}
	return out, spans
}

// writeTable prints every metric by name and unit.
func writeTable(w io.Writer, rec record) {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	for _, wr := range rec.Workloads {
		fmt.Fprintf(tw, "\n%s\t%d generations x %d\tfingerprint %s\tfailed %d/%d\n", wr.Name, wr.Generations, wr.Replicates, wr.Fingerprint, wr.Failed, wr.Attempted)
		fmt.Fprintf(tw, "  metric\tunit\tmedian\tq1\tq3\tn\n")
		for _, d := range e2eMetrics {
			s := wr.E2E[d.Name]
			fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%.6g\t%.6g\t%d\n", d.Name, d.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
		if len(wr.Layers) > 0 {
			fmt.Fprintf(tw, "  layer metric\tunit\tvalue\tkind\n")
			for _, d := range layerMetrics {
				fmt.Fprintf(tw, "  %s\t%s\t%.6g\t%s\n", d.Name, d.Unit, wr.Layers[d.Name].Value, d.Kind)
			}
		}
		for _, f := range wr.Failures {
			fmt.Fprintf(tw, "  FAILED: %s\n", f)
		}
	}
	tw.Flush()
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeRecord writes the record to path, or to stdout when path is empty.
func writeRecord(path string, rec record, stdout io.Writer) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// readRecord reads a record written by writeRecord.
func readRecord(path string) (record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema != recordSchema {
		return record{}, fmt.Errorf("%s: schema %q, want %q", path, rec.Schema, recordSchema)
	}
	return rec, nil
}

// summaryMetric is one metric of the one-line summary.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeSummary prints the single-workload summary as the last line of
// stdout: the end-to-end medians, or with traced the per-layer metrics.
func writeSummary(w io.Writer, wr workloadRecord, traced bool) error {
	metrics := map[string]summaryMetric{}
	if traced {
		for _, d := range layerMetrics {
			metrics[d.Name] = summaryMetric{Value: wr.Layers[d.Name].Value, Unit: d.Unit}
		}
	} else {
		for _, d := range e2eMetrics {
			metrics[d.Name] = summaryMetric{Value: wr.E2E[d.Name].Median, Unit: d.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                     `json:"correct"`
		Attempted int                      `json:"attempted"`
		Failed    int                      `json:"failed"`
		Metrics   map[string]summaryMetric `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// captureEnv records the toolchain, machine and commit.  The commit comes
// from git when the benchmark runs inside a git work tree.
func captureEnv(o options, procs int) environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       o.Seed,
		Repeats:    o.Repeats,
		Seconds:    o.Seconds,
		Quick:      o.Quick,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			dirty := len(strings.TrimSpace(string(status))) > 0
			env.Dirty = &dirty
		}
	}
	return env
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
