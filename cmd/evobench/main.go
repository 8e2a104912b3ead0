// Command evobench is the repository's end-to-end benchmark.  One command
// times the four paper workloads through the public facade
// (evogame.Simulate, SimulateParallel and RunEnsemble), checks every
// output, and attributes each workload's time to the layers — the internal
// packages — it runs through.
//
// The benchmark is a module of its own (it builds against the repository
// through a replace directive), so run it from this directory:
//
//	go run . [-seed 2013] [-repeats 3] [-seconds 10] [-out FILE] [-spans FILE]
//	go run . -workload fig2-noisy -seed 7 -seconds 12 -trace 0
//	go run . -quick
//	go run . -list
//	go run . compare A.json B.json
//
// or from the repository root with sh cmd/evobench/run.sh and the same
// arguments, which keeps every build product under .bench_build/.
//
// Each workload is one closed batch computation reported as throughput at
// a stated size.  Its e2e repeats run one at a time, each in a fresh child
// process (the binary re-executes itself) with GOMAXPROCS at most 2 and
// every worker count explicit, until -repeats are done and no further
// repeat fits into -seconds; each end-to-end metric is reported as median,
// quartiles and n over the repeats.  Traced children, interleaved
// with the repeats, drive the same work through the layers' own entry
// points with a span around each call; the first of them also times each
// layer's public functions on inputs captured from the run (the probes).
// Every child must reproduce the first child's fingerprint, and a
// reference oracle checks a prefix of each workload against an
// independent path.  Failures count into fail_frac.
//
// With -workload the last line of standard output is a one-line JSON
// summary of that workload: {"correct", "attempted", "failed", "metrics"},
// the metrics being the end-to-end medians with -trace 0 and the per-layer
// values with -trace 1.  Without -workload the full record (environment
// included) goes to standard output, or to -out.  The table always goes to
// standard error.  See README.md for the metric catalogue.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// defaultSeed is the paper's publication year, the repository's usual
// experiment seed.
const defaultSeed = 2013

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "child":
			return childMain(args[1:], stdout, stderr)
		}
	}
	o, err := parseOptions(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if o.List {
		writeList(stdout)
		return 0
	}
	return benchMain(o, stdout, stderr)
}

// options are the benchmark's flags.
type options struct {
	Seed     uint64
	Repeats  int
	Seconds  float64
	Workload string
	Trace    int
	Out      string
	Spans    string
	Quick    bool
	List     bool
}

// parseOptions parses and validates the flags.  -quick lowers the defaults
// of -repeats and -seconds to one repeat and no time floor.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("evobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&o.Seed, "seed", defaultSeed, "seed every workload's inputs derive from")
	fs.IntVar(&o.Repeats, "repeats", 3, "minimum e2e repeats per workload")
	fs.Float64Var(&o.Seconds, "seconds", 10, "minimum seconds of e2e repeats per workload")
	fs.StringVar(&o.Workload, "workload", "", "run only this workload and end stdout with its one-line summary")
	fs.IntVar(&o.Trace, "trace", 1, "1 runs the traced runs and probes, 0 skips them")
	fs.StringVar(&o.Out, "out", "", "write the JSON record to this file instead of stdout")
	fs.StringVar(&o.Spans, "spans", "", "write the traced runs' spans to this file as JSON lines")
	fs.BoolVar(&o.Quick, "quick", false, "every workload at about 1/100 of its length, one repeat")
	fs.BoolVar(&o.List, "list", false, "print the workloads and metrics and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("evobench: unexpected argument %q", fs.Arg(0))
	}
	if o.Quick {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["repeats"] {
			o.Repeats = 1
		}
		if !set["seconds"] {
			o.Seconds = 0
		}
	}
	return o, o.validate()
}

func (o options) validate() error {
	if o.Repeats < 1 {
		return fmt.Errorf("evobench: -repeats must be at least 1, got %d", o.Repeats)
	}
	if o.Seconds < 0 {
		return fmt.Errorf("evobench: -seconds must be non-negative, got %v", o.Seconds)
	}
	if o.Trace != 0 && o.Trace != 1 {
		return fmt.Errorf("evobench: -trace must be 0 or 1, got %d", o.Trace)
	}
	if _, ok := lookupWorkload(o.Workload); o.Workload != "" && !ok {
		return fmt.Errorf("evobench: -workload %q is not one of %s", o.Workload, strings.Join(workloadNames(), ", "))
	}
	return nil
}

// selected returns the workloads to run.
func (o options) selected() []workload {
	if w, ok := lookupWorkload(o.Workload); ok {
		return []workload{w}
	}
	return workloads
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// writeList prints the workloads and the metric catalogue.
func writeList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-16s %d generations x %d: %s\n", wl.name, wl.gens, max(1, wl.replicates), wl.size)
		fmt.Fprintf(w, "  %-16s why: %s\n", "", wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (median, q1, q3, n over the repeats):")
	for _, d := range e2eMetrics {
		fmt.Fprintf(w, "  %-28s %-10s %-6s better, bound %.2f\n", d.Name, d.Unit, d.Better, d.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (traced runs):")
	for _, d := range layerMetrics {
		fmt.Fprintf(w, "  %-28s %-10s %-8s moves %s\n", d.Name, d.Unit, d.Kind, d.Moves)
	}
}
