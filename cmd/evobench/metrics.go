package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// metricDef describes one metric of the catalogue.  BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// catalogueDiff keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the base median by which an end-to-end metric
	// may get worse before compare calls it worse.
	Bound float64
	// Kind says where a per-layer value comes from: "count" (a counter of
	// the traced run, identical for a given seed), "probe" (the layer's
	// public function timed on inputs captured from the traced run),
	// "span" (spans the benchmark records around the traced calls),
	// "engine" (timings the engine reports), "computed" (derived from
	// counts, not measured) or "estimate" (a probe time multiplied by a
	// count).
	Kind string
	// Moves names the end-to-end metric and workloads the value should
	// move, as predicted before any measurement.
	Moves string
}

// Metric kinds; compare reports differing counts as counts.
const (
	kindCount    = "count"
	kindProbe    = "probe"
	kindSpan     = "span"
	kindEngine   = "engine"
	kindComputed = "computed"
	kindEstimate = "estimate"
)

// e2eMetrics are measured with tracing off, once per repeat, each repeat in
// a fresh child process.  A bound must cover the spread of the metric over
// ten runs at ten seeds on a shared 2-core VM (see README.md): alloc_mb
// keeps 10%; the CPU timings drift with the machine and incr-comm-ckpt's
// peak RSS follows its seed, so those get 20%; set-up time, timed in
// milliseconds or less, gets the largest.
var e2eMetrics = []metricDef{
	{Name: "gens_per_s", Unit: "gen/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "max_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
}

// layerMetrics come from the traced runs.  Layer prefixes are the module's
// package names.
var layerMetrics = []metricDef{
	{Name: "game.games_per_gen", Unit: "game/gen", Better: "lower", Kind: kindCount, Moves: "gens_per_s on all workloads"},
	{Name: "game.batch_frac", Unit: "ratio", Better: "higher", Kind: kindCount, Moves: "gens_per_s on fig2-noisy"},
	{Name: "game.cycle_frac", Unit: "ratio", Better: "higher", Kind: kindCount, Moves: "gens_per_s on fig6-replay-m6, ensemble-m6"},
	{Name: "game.scalar_frac", Unit: "ratio", Better: "lower", Kind: kindCount, Moves: "gens_per_s on fig6-replay-m6, ensemble-m6"},
	{Name: "game.lane_occupancy", Unit: "ratio", Better: "higher", Kind: kindCount, Moves: "gens_per_s on fig2-noisy"},
	{Name: "game.ns_per_game", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on fig6-replay-m6, ensemble-m6, fig2-noisy; not incr-comm-ckpt"},
	{Name: "game.allocs_per_game", Unit: "alloc/game", Better: "lower", Kind: kindProbe, Moves: "alloc_mb on fig2-noisy"},
	{Name: "rng.bool_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on fig2-noisy; not the noiseless workloads"},
	{Name: "rng.split_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on fig2-noisy; not the noiseless workloads"},
	{Name: "rng.split_allocs", Unit: "alloc", Better: "lower", Kind: kindProbe, Moves: "alloc_mb on fig2-noisy"},
	{Name: "rng.draws_per_gen", Unit: "draw/gen", Better: "lower", Kind: kindComputed, Moves: "gens_per_s on fig2-noisy"},
	{Name: "fitness.hits_per_gen", Unit: "hit/gen", Better: "higher", Kind: kindCount, Moves: "gens_per_s on ensemble-m6"},
	{Name: "fitness.misses_per_gen", Unit: "miss/gen", Better: "lower", Kind: kindCount, Moves: "gens_per_s on ensemble-m6, incr-comm-ckpt"},
	{Name: "fitness.hit_ratio", Unit: "ratio", Better: "higher", Kind: kindCount, Moves: "gens_per_s on ensemble-m6"},
	{Name: "fitness.bypassed_per_gen", Unit: "game/gen", Better: "lower", Kind: kindCount, Moves: "none: no workload builds a cache it then bypasses"},
	{Name: "fitness.evicted", Unit: "count", Better: "lower", Kind: kindCount, Moves: "gens_per_s on ensemble-m6, incr-comm-ckpt"},
	{Name: "fitness.miss_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt, ensemble-m6; not fig2-noisy, fig6-replay-m6"},
	{Name: "fitness.hit_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on ensemble-m6; not fig2-noisy, fig6-replay-m6"},
	{Name: "fitness.matrix_update_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "fitness.matrix_fitness_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "intern.insert_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s and max_rss_mb on incr-comm-ckpt"},
	{Name: "intern.hit_ns", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "ensemble.cold_misses", Unit: "miss", Better: "lower", Kind: kindCount, Moves: "gens_per_s on ensemble-m6 only"},
	{Name: "ensemble.warm_misses_mean", Unit: "miss", Better: "lower", Kind: kindCount, Moves: "gens_per_s on ensemble-m6 only"},
	{Name: "ensemble.warm_hit_ratio", Unit: "ratio", Better: "higher", Kind: kindCount, Moves: "gens_per_s on ensemble-m6 only"},
	{Name: "nature.pc_per_kgen", Unit: "event/kgen", Better: "lower", Kind: kindCount, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "nature.adoption_ratio", Unit: "ratio", Better: "lower", Kind: kindCount, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "nature.mutations_per_kgen", Unit: "event/kgen", Better: "lower", Kind: kindCount, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "nature.ns_per_gen", Unit: "ns", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt; negligible elsewhere"},
	{Name: "population.step_p50_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "gens_per_s on fig2-noisy"},
	{Name: "population.step_p99_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "gens_per_s on fig2-noisy"},
	{Name: "population.sample_us", Unit: "us", Better: "lower", Kind: kindSpan, Moves: "gens_per_s on fig2-noisy"},
	{Name: "parallel.compute_share", Unit: "ratio", Better: "lower", Kind: kindEngine, Moves: "gens_per_s on fig6-replay-m6"},
	{Name: "parallel.comm_share", Unit: "ratio", Better: "lower", Kind: kindEngine, Moves: "gens_per_s on incr-comm-ckpt"},
	{Name: "parallel.rank_imbalance", Unit: "ratio", Better: "lower", Kind: kindEngine, Moves: "gens_per_s on fig6-replay-m6"},
	{Name: "mpi.msgs_per_gen", Unit: "msg/gen", Better: "lower", Kind: kindCount, Moves: "gens_per_s and cpu_s on incr-comm-ckpt"},
	{Name: "mpi.bytes_per_gen", Unit: "B/gen", Better: "lower", Kind: kindCount, Moves: "gens_per_s and cpu_s on incr-comm-ckpt"},
	{Name: "mpi.retried_sends", Unit: "count", Better: "lower", Kind: kindCount, Moves: "none on fault-free runs"},
	{Name: "mpi.bcast_us", Unit: "us", Better: "lower", Kind: kindProbe, Moves: "gens_per_s and cpu_s on incr-comm-ckpt; at most 2% of fig6-replay-m6"},
	{Name: "checkpoint.saves", Unit: "count", Better: "lower", Kind: kindCount, Moves: "gens_per_s on incr-comm-ckpt only"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower", Kind: kindCount, Moves: "gens_per_s on incr-comm-ckpt only"},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Kind: kindProbe, Moves: "gens_per_s on incr-comm-ckpt only"},
	{Name: "share.game", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.fitness", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.rng", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.nature", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.mpi", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.checkpoint", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "share.other", Unit: "ratio", Better: "lower", Kind: kindEstimate, Moves: "names the layer to target"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Kind: kindSpan, Moves: "must stay at most 0.02 on fig2-noisy"},
}

// benchmarkFileName is the file, at the repository root, that describes
// the benchmark to tooling.
const benchmarkFileName = "BENCHMARK.json"

// benchmarkFile is the part of BENCHMARK.json the catalogue must match.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// catalogueDiff reports every way the BENCHMARK.json at path differs from
// the compiled catalogue: workloads by name and why, metrics by name,
// unit, direction and (end-to-end) bound, all in order.  It returns nil
// when they agree.
func catalogueDiff(path string) error {
	b, err := readBenchmarkFile(path)
	if err != nil {
		return err
	}
	var diffs []string
	differ := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }
	for i := 0; i < max(len(b.Workloads), len(workloads)); i++ {
		var file, cat [2]string
		if i < len(b.Workloads) {
			file = [2]string{b.Workloads[i].Name, b.Workloads[i].Why}
		}
		if i < len(workloads) {
			cat = [2]string{workloads[i].name, workloads[i].why}
		}
		if file != cat {
			differ("workload %d: file %q, command %q", i, file, cat)
		}
	}
	for i := 0; i < max(len(b.EndToEnd), len(e2eMetrics)); i++ {
		var file, cat metricDef
		if i < len(b.EndToEnd) {
			m := b.EndToEnd[i]
			file = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		if i < len(e2eMetrics) {
			d := e2eMetrics[i]
			cat = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		if file != cat {
			differ("end-to-end metric %d: file %+v, command %+v", i, file, cat)
		}
	}
	for i := 0; i < max(len(b.PerLayer), len(layerMetrics)); i++ {
		var file, cat [3]string
		if i < len(b.PerLayer) {
			file = [3]string{b.PerLayer[i].Name, b.PerLayer[i].Unit, b.PerLayer[i].Better}
		}
		if i < len(layerMetrics) {
			cat = [3]string{layerMetrics[i].Name, layerMetrics[i].Unit, layerMetrics[i].Better}
		}
		if file != cat {
			differ("per-layer metric %d: file %q, command %q", i, file, cat)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("%s disagrees with the compiled catalogue: %s", path, strings.Join(diffs, "; "))
	}
	return nil
}
