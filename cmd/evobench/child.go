package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"evogame"
	"evogame/internal/ensemble"
	"evogame/internal/fitness"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/strategy"
)

// setupRepeats is how many times each e2e child times the workload's
// set-up (the same configuration at Generations: 0) before the timed run;
// the child reports their median.
const setupRepeats = 5

// childResult is what one child process prints on its standard output.
type childResult struct {
	Generations  int                `json:"generations"`
	SetupSeconds float64            `json:"setup_s,omitempty"`
	WallSeconds  float64            `json:"wall_s"`
	CPUSeconds   float64            `json:"cpu_s"`
	MaxRSSMiB    float64            `json:"max_rss_mb"`
	AllocMiB     float64            `json:"alloc_mb"`
	Fingerprint  string             `json:"fingerprint"`
	Probed       bool               `json:"probed,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	Spans        []span             `json:"spans,omitempty"`
}

// childMain is the entry point of a child process: one e2e repeat
// (-role run) or one traced run (-role trace) of one workload.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("evobench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	role := fs.String("role", "run", "run (one e2e repeat) or trace (one traced run)")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	quick := fs.Bool("quick", false, "run the -quick length")
	probes := fs.Bool("probes", false, "after a traced run, time each layer's public functions")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "evobench child: unknown -workload %q\n", *name)
		return 2
	}
	res, err := runChildRole(*role, w, *seed, w.length(*quick), *probes)
	if err != nil {
		fmt.Fprintf(stderr, "evobench child: %s %s: %v\n", *role, w.name, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "evobench child: %v\n", err)
		return 1
	}
	return 0
}

// runChildRole runs one role in a private temporary directory, which
// holds the checkpoints and is removed afterwards.
func runChildRole(role string, w workload, seed uint64, gens int, probes bool) (childResult, error) {
	dir, err := os.MkdirTemp("", "evobench-")
	if err != nil {
		return childResult{}, err
	}
	defer os.RemoveAll(dir)
	switch role {
	case "run":
		return measureRun(w, seed, gens, dir)
	case "trace":
		return measureTrace(w, seed, gens, dir, probes)
	}
	return childResult{}, fmt.Errorf("unknown -role %q", role)
}

// measureRun is one e2e repeat: the set-up timed setupRepeats times, then
// the timed run through the facade with tracing off.
func measureRun(w workload, seed uint64, gens int, dir string) (childResult, error) {
	ctx := context.Background()
	setups := make([]float64, setupRepeats)
	for k := range setups {
		start := now()
		if _, err := w.run(ctx, seed, 0, dir); err != nil {
			return childResult{}, fmt.Errorf("set-up: %w", err)
		}
		setups[k] = now().Sub(start).Seconds()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := usage()
	start := now()
	out, err := w.run(ctx, seed, gens, dir)
	wall := now().Sub(start)
	ru := usage()
	if err != nil {
		return childResult{}, err
	}
	runtime.ReadMemStats(&ms)
	rss, err := peakRSSMiB()
	if err != nil {
		return childResult{}, err
	}
	return childResult{
		Generations:  out.gens,
		SetupSeconds: median(setups),
		WallSeconds:  wall.Seconds(),
		CPUSeconds:   cpuSeconds(ru) - cpuSeconds(cpu0),
		MaxRSSMiB:    rss,
		AllocMiB:     float64(ms.TotalAlloc-alloc0) / (1 << 20),
		Fingerprint:  fingerprint(out.runs),
	}, nil
}

// peakRSSMiB returns the process's peak resident set (VmHWM).  Rusage's
// Maxrss will not do: Linux carries the parent's peak across the fork and
// exec that started this child.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func usage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF of a live process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// tracedRun is what a traced run hands the counters and the probes.
type tracedRun struct {
	runs       []runSummary
	metrics    fitness.Metrics   // summed over replicates or ranks
	replicates []fitness.Metrics // per ensemble replicate
	ranks      []parallel.RankReport
	tables     [][]strategy.Strategy // probe inputs
}

// measureTrace is one traced run: the same work as an e2e repeat, driven
// through the layers' own entry points with a span around each call, and
// optionally followed by the probes.
func measureTrace(w workload, seed uint64, gens int, dir string, probes bool) (childResult, error) {
	tr := newTracer(w.name)
	root := tr.begin("evobench.trace", 0)
	start := now()
	t, err := w.traced(context.Background(), tr, root, seed, gens, dir)
	wall := now().Sub(start)
	if err != nil {
		return childResult{}, err
	}
	res := childResult{
		Generations: gens * max(1, w.replicates),
		WallSeconds: wall.Seconds(),
		Fingerprint: fingerprint(t.runs),
		Layers:      w.counts(t, gens, wall),
	}
	if probes {
		if err := runProbes(tr, root, w, seed, dir, t, res.Layers); err != nil {
			return childResult{}, err
		}
		w.shares(res.Layers, t, gens, wall)
		res.Probed = true
	}
	tr.end(root)
	res.Spans = tr.spans
	return res, nil
}

// traced runs the workload through the layer each engine is built on:
//   - serial: population.New, then Model.Step per generation and
//     Model.Sample at SampleEvery and at the end — exactly Model.Run;
//   - ensemble: ensemble.RunSerial;
//   - distributed: parallel.Run.
func (w workload) traced(ctx context.Context, tr *tracer, root int, seed uint64, gens int, dir string) (tracedRun, error) {
	switch w.engine {
	case serialEngine:
		return tracedSerial(tr, root, w.simulation(seed, gens), gens)
	case ensembleEngine:
		base, err := populationConfig(w.simulation(seed, gens))
		if err != nil {
			return tracedRun{}, err
		}
		id := tr.begin("ensemble.run", root)
		res, err := ensemble.RunSerial(ctx, base, gens, ensemble.Config{Replicates: w.replicates, Workers: w.workers})
		tr.end(id)
		if err != nil {
			return tracedRun{}, err
		}
		t := tracedRun{metrics: res.Metrics}
		for _, r := range res.Runs {
			t.runs = append(t.runs, populationSummary(r))
			t.replicates = append(t.replicates, r.Metrics)
		}
		t.tables = [][]strategy.Strategy{res.Runs[0].FinalStrategies}
		return t, nil
	default:
		cfg, err := parallelConfig(w.distributed(seed, gens, dir))
		if err != nil {
			return tracedRun{}, err
		}
		id := tr.begin("parallel.run", root)
		res, err := parallel.Run(cfg)
		tr.end(id)
		if err != nil {
			return tracedRun{}, err
		}
		return tracedRun{
			runs:    []runSummary{parallelSummary(res)},
			metrics: res.Metrics,
			ranks:   res.Ranks,
			tables:  [][]strategy.Strategy{res.FinalStrategies},
		}, nil
	}
}

// tracedSerial does the work of population.Model.Run step by step, with a
// span per Step and per Sample, and keeps the table at every sample point
// for the probes.
func tracedSerial(tr *tracer, root int, sim evogame.SimulationConfig, gens int) (tracedRun, error) {
	cfg, err := populationConfig(sim)
	if err != nil {
		return tracedRun{}, err
	}
	id := tr.begin("population.setup", root)
	m, err := population.New(cfg)
	tr.end(id)
	if err != nil {
		return tracedRun{}, err
	}
	var (
		samples []population.AbundanceSample
		tables  [][]strategy.Strategy
	)
	sample := func() {
		id := tr.begin("population.sample", root)
		samples = append(samples, m.Sample())
		tr.end(id)
		tables = append(tables, m.Strategies())
	}
	for g := 0; g < gens; g++ {
		id := tr.begin("population.step", root)
		err := m.Step()
		tr.end(id)
		if err != nil {
			return tracedRun{}, err
		}
		if cfg.SampleEvery > 0 && m.Generation()%cfg.SampleEvery == 0 {
			sample()
		}
	}
	if len(samples) == 0 || samples[len(samples)-1].Generation != m.Generation() {
		sample()
	}
	res := population.Result{
		Generations:      m.Generation(),
		FinalStrategies:  m.Strategies(),
		Samples:          samples,
		NatureStats:      m.NatureStats(),
		TotalGamesPlayed: m.GamesPlayed(),
		Metrics:          m.Metrics(),
	}
	return tracedRun{runs: []runSummary{populationSummary(res)}, metrics: res.Metrics, tables: tables}, nil
}

// counts derives the per-layer counters of a traced run.
func (w workload) counts(t tracedRun, gens int, wall time.Duration) map[string]float64 {
	total := float64(gens * max(1, w.replicates))
	m := t.metrics
	games := float64(m.ScalarGames + m.CycleGames + m.BatchGames)
	noisy := 0.0
	if w.noise > 0 {
		noisy = games
	}
	L := map[string]float64{
		"game.games_per_gen":       ratio(games, total),
		"game.batch_frac":          ratio(float64(m.BatchGames), games),
		"game.cycle_frac":          ratio(float64(m.CycleGames), games),
		"game.scalar_frac":         ratio(float64(m.ScalarGames), games),
		"game.lane_occupancy":      m.BatchLaneOccupancy(),
		"rng.draws_per_gen":        ratio(2*float64(w.engineConfig().Rounds)*noisy, total),
		"fitness.hits_per_gen":     ratio(float64(m.CacheHits), total),
		"fitness.misses_per_gen":   ratio(float64(m.CacheMisses), total),
		"fitness.hit_ratio":        ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses)),
		"fitness.bypassed_per_gen": ratio(float64(m.CacheBypassed), total),
		"fitness.evicted":          float64(m.CacheEvicted),
		"checkpoint.saves":         float64(w.saves(gens)),
	}
	var pc, adopted, mutated float64
	for _, r := range t.runs {
		pc += float64(r.pcEvents)
		adopted += float64(r.adoptions)
		mutated += float64(r.mutations)
	}
	L["nature.pc_per_kgen"] = ratio(1000*pc, total)
	L["nature.adoption_ratio"] = ratio(adopted, pc)
	L["nature.mutations_per_kgen"] = ratio(1000*mutated, total)

	if len(t.replicates) > 0 {
		var warmMisses, warmHits float64
		for _, r := range t.replicates[1:] {
			warmMisses += float64(r.CacheMisses)
			warmHits += float64(r.CacheHits)
		}
		L["ensemble.cold_misses"] = float64(t.replicates[0].CacheMisses)
		L["ensemble.warm_misses_mean"] = ratio(warmMisses, float64(len(t.replicates)-1))
		L["ensemble.warm_hit_ratio"] = ratio(warmHits, warmHits+warmMisses)
	}

	if len(t.ranks) > 0 {
		var compute, comm, maxCompute, msgs, bytes, retried float64
		for _, r := range t.ranks {
			msgs += float64(r.CommStats.SendCount)
			bytes += float64(r.CommStats.BytesSent)
			retried += float64(r.CommStats.RetriedSends)
			if r.Rank == 0 {
				continue
			}
			compute += r.Compute.Seconds()
			comm += r.Comm.Seconds()
			maxCompute = max(maxCompute, r.Compute.Seconds())
		}
		sset := float64(len(t.ranks) - 1)
		L["parallel.compute_share"] = ratio(compute/sset, wall.Seconds())
		L["parallel.comm_share"] = ratio(comm/sset, wall.Seconds())
		L["parallel.rank_imbalance"] = ratio(maxCompute, compute/sset)
		L["mpi.msgs_per_gen"] = ratio(msgs, float64(gens))
		L["mpi.bytes_per_gen"] = ratio(bytes, float64(gens))
		L["mpi.retried_sends"] = retried
	}
	return L
}

// saves is the number of checkpoint files a run of gens generations
// writes: one per period, plus the final state unless the last period
// already captured it.
func (w workload) saves(gens int) int {
	if w.checkpoints == 0 {
		return 0
	}
	every := w.gens / w.checkpoints
	n := gens / every
	if gens%every != 0 {
		n++
	}
	return n
}

// shares attributes the traced wall time to layers: each layer's probe
// time per operation times the run's own operation count, divided by the
// wall time of the traced call times the workload's lanes.  They are
// estimates.  The noise draws happen inside the game kernel, so share.game
// excludes them and share.rng holds them; share.other is the remainder.
func (w workload) shares(L map[string]float64, t tracedRun, gens int, wall time.Duration) {
	total := float64(gens * max(1, w.replicates))
	games := L["game.games_per_gen"] * total
	draws := L["rng.draws_per_gen"] * total
	splits := 0.0
	if w.noise > 0 {
		splits = games // the serial noisy path splits one source per game
	}
	matrices := 0.0
	if w.eval == evogame.EvalIncremental {
		matrices = float64(w.lanes())
	}
	var events float64
	var comm time.Duration
	for _, r := range t.runs {
		events += float64(r.adoptions + r.mutations)
	}
	for _, r := range t.ranks {
		if r.Rank != 0 {
			comm += r.Comm
		}
	}
	est := []struct {
		name string
		ns   float64
	}{
		{"share.game", max(0, games*L["game.ns_per_game"]-draws*L["rng.bool_ns"])},
		{"share.rng", draws*L["rng.bool_ns"] + splits*L["rng.split_ns"]},
		{"share.fitness", L["fitness.hits_per_gen"]*total*L["fitness.hit_ns"] + events*matrices*L["fitness.matrix_update_us"]*nsPerMicro},
		{"share.nature", total * L["nature.ns_per_gen"]},
		{"share.mpi", float64(comm.Nanoseconds())},
		{"share.checkpoint", L["checkpoint.saves"] * L["checkpoint.save_ms"] * nsPerMilli},
	}
	denom := float64(wall.Nanoseconds()) * float64(w.lanes())
	other := 1.0
	for _, e := range est {
		L[e.name] = ratio(e.ns, denom)
		other -= L[e.name]
	}
	L["share.other"] = other
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
