package main

// BENCH_5.json … BENCH_9.json are the committed -json outputs of the
// kernel, batch, ensemble, artifact and faults tables.  The numbers are a
// snapshot of the machine that produced them, so these tests do not
// re-measure.  Each decodes its baseline strictly into the table's own
// document type, so the file and the code that writes it cannot drift
// apart, and pins the claim the baseline exists to document.

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"evogame"
)

// decodeStrict decodes one JSON document into doc, failing on any key the
// document type does not declare.
func decodeStrict(r io.Reader, doc any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(doc)
}

// baselinePath is the committed baseline file at the repository root.
func baselinePath(name string) string {
	return filepath.Join("..", "..", name)
}

// loadBaseline decodes the committed baseline file strictly into doc.
func loadBaseline(t *testing.T, name string, doc any) {
	t.Helper()
	f, err := os.Open(baselinePath(name))
	if err != nil {
		t.Fatalf("reading committed baseline: %v", err)
	}
	defer f.Close()
	if err := decodeStrict(f, doc); err != nil {
		t.Fatalf("%s does not decode strictly into %T: %v", name, doc, err)
	}
}

// TestBenchBaselineSchemaAndClaims pins BENCH_5.json, the kernel table's
// baseline: the cycle-closing and cached pipeline levels beat the
// full-replay kernel by at least 5x on the S=512 memory-one workload, and
// run allocation-free.
func TestBenchBaselineSchemaAndClaims(t *testing.T) {
	var doc kernelDoc
	loadBaseline(t, "BENCH_5.json", &doc)
	if doc.Table != "kernel" || doc.Rounds != evogame.DefaultRounds || doc.MemorySteps != 1 {
		t.Fatalf("baseline header = (%q, rounds=%d, memory=%d), want (kernel, %d, 1)",
			doc.Table, doc.Rounds, doc.MemorySteps, evogame.DefaultRounds)
	}
	seen := make(map[[2]interface{}]kernelRow)
	for _, row := range doc.Rows {
		if row.Games <= 0 || row.Seconds <= 0 || row.NsPerGame <= 0 {
			t.Errorf("row %+v has non-positive measurements", row)
		}
		seen[[2]interface{}{row.SSets, row.Mode}] = row
	}
	for _, ssets := range []int{32, 128, 512} {
		for _, mode := range []string{"full-replay", "cycle-closing", "cached"} {
			if _, ok := seen[[2]interface{}{ssets, mode}]; !ok {
				t.Errorf("baseline is missing the (S=%d, %s) row", ssets, mode)
			}
		}
	}
	// The acceptance claim the baseline documents: >=5x at S=512 for both
	// fast paths, with the cached path allocation-free.
	for _, mode := range []string{"cycle-closing", "cached"} {
		row, ok := seen[[2]interface{}{512, mode}]
		if !ok {
			continue
		}
		if row.SpeedupVsFullReplay < 5 {
			t.Errorf("baseline records %.1fx for (S=512, %s), want >= 5x", row.SpeedupVsFullReplay, mode)
		}
		if row.AllocsPerOp >= 0.01 {
			t.Errorf("baseline records %.3f allocs/game for (S=512, %s), want ~0", row.AllocsPerOp, mode)
		}
	}
}

// TestBenchBatchBaselineSchemaAndClaims pins BENCH_6.json, the batch
// table's baseline: the bit-sliced SWAR kernel against the scalar
// full-replay loop on the block-of-opponents fitness workload, noiseless
// and noisy.
func TestBenchBatchBaselineSchemaAndClaims(t *testing.T) {
	var doc batchDoc
	loadBaseline(t, "BENCH_6.json", &doc)
	if doc.Table != "batch" || doc.Rounds != evogame.DefaultRounds || doc.MemorySteps != 1 {
		t.Fatalf("baseline header = (%q, rounds=%d, memory=%d), want (batch, %d, 1)",
			doc.Table, doc.Rounds, doc.MemorySteps, evogame.DefaultRounds)
	}
	if doc.Metrics.BatchGames <= 0 || doc.Metrics.BatchCalls <= 0 ||
		doc.Metrics.ScalarGames <= 0 || doc.Metrics.BatchLaneOccupancy <= 0 {
		t.Errorf("aggregate metrics envelope is empty: %+v", doc.Metrics)
	}
	// The workers dimension covers 1 and GOMAXPROCS of the recording
	// machine; on a single-CPU recorder the two collapse into one column.
	workerCounts := []int{1}
	if doc.GoMaxProcs > 1 {
		workerCounts = append(workerCounts, doc.GoMaxProcs)
	}
	type key struct {
		ssets   int
		mode    string
		noise   float64
		workers int
	}
	seen := make(map[key]batchRow)
	for _, row := range doc.Rows {
		if row.Games <= 0 || row.Seconds <= 0 || row.NsPerGame <= 0 {
			t.Errorf("row %+v has non-positive measurements", row)
		}
		if row.Mode == "batch" && row.BatchLaneOccupancy <= 0 {
			t.Errorf("batch row %+v never filled a SWAR lane", row)
		}
		seen[key{row.SSets, row.Mode, row.Noise, row.Workers}] = row
	}
	for _, ssets := range []int{32, 128, 512} {
		for _, noise := range []float64{0, 0.05} {
			for _, workers := range workerCounts {
				for _, mode := range []string{"full-replay", "batch"} {
					if _, ok := seen[key{ssets, mode, noise, workers}]; !ok {
						t.Errorf("baseline is missing the (S=%d, %s, noise=%v, workers=%d) row",
							ssets, mode, noise, workers)
					}
				}
			}
		}
	}
	// The acceptance claim the baseline documents: the SWAR kernel beats
	// scalar full replay by >=5x on the noiseless S=512 workload, without
	// allocating in the steady state.
	for _, workers := range workerCounts {
		row, ok := seen[key{512, "batch", 0, workers}]
		if !ok {
			continue
		}
		if row.SpeedupVsFullReplay < 5 {
			t.Errorf("baseline records %.1fx for (S=512, batch, noiseless, workers=%d), want >= 5x",
				row.SpeedupVsFullReplay, workers)
		}
		if row.AllocsPerOp >= 0.01 {
			t.Errorf("baseline records %.3f allocs/game for (S=512, batch, noiseless, workers=%d), want ~0",
				row.AllocsPerOp, workers)
		}
	}
}

// TestBenchEnsembleBaselineSchemaAndClaims pins BENCH_7.json, the ensemble
// table's baseline: 8 replicates of a noiseless cached S=128 run under the
// ensemble tier, shared vs private pair-cache store at every ensemble
// worker count in {1, 2, 4, 8}.  Sharing the store makes the 8-replicate
// ensemble at 8 workers at least 3x faster than running the replicates
// serially with private caches, with cross-run cache hits from replicate 1
// onward doing the work (the recording machine may have a single core, so
// the win must come from miss elimination, not parallelism).
func TestBenchEnsembleBaselineSchemaAndClaims(t *testing.T) {
	var doc ensembleDoc
	loadBaseline(t, "BENCH_7.json", &doc)
	if doc.Table != "ensemble" || doc.Rounds != evogame.DefaultRounds || doc.SSets != 128 || doc.Replicates != 8 {
		t.Fatalf("baseline header = (%q, rounds=%d, ssets=%d, replicates=%d), want (ensemble, %d, 128, 8)",
			doc.Table, doc.Rounds, doc.SSets, doc.Replicates, evogame.DefaultRounds)
	}
	if doc.MemorySteps <= 0 || doc.Generations <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header has non-positive dimensions: %+v", doc)
	}
	type key struct {
		workers int
		cache   string
	}
	seen := make(map[key]ensembleRow)
	for _, row := range doc.Rows {
		if row.Seconds <= 0 || row.Games <= 0 || row.Replicates != doc.Replicates {
			t.Errorf("row %+v has non-positive measurements or a replicate mismatch", row)
		}
		if row.Cache == "shared" && row.WarmHits <= 0 {
			t.Errorf("shared row %+v records no cross-run cache hits", row)
		}
		seen[key{row.EnsembleWorkers, row.Cache}] = row
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cache := range []string{"shared", "private"} {
			if _, ok := seen[key{workers, cache}]; !ok {
				t.Errorf("baseline is missing the (workers=%d, %s) row", workers, cache)
			}
		}
	}
	// The acceptance claim the baseline documents: >=3x over serial
	// replicates at 8 ensemble workers with the shared store, which must be
	// eliminating misses the private runs pay for.
	shared8, okS := seen[key{8, "shared"}]
	private8, okP := seen[key{8, "private"}]
	if okS {
		if shared8.SpeedupVsSerial < 3 {
			t.Errorf("baseline records %.2fx for (workers=8, shared), want >= 3x over serial private replicates",
				shared8.SpeedupVsSerial)
		}
		if okP && shared8.WarmMisses >= private8.WarmMisses {
			t.Errorf("shared store eliminated no warm misses: shared=%d, private=%d",
				shared8.WarmMisses, private8.WarmMisses)
		}
	}
}

// TestBenchArtifactBaselineSchemaAndClaims pins BENCH_8.json, the artifact
// table's baseline: the paperkit incremental runner regenerating one
// quick-grid artifact cold, warm and after deleting a single envelope.
// The claims are structural, not timing thresholds: the cold phase
// executes every run, the warm phase executes none, the deletion
// re-executes exactly one, and the regenerated envelope is byte-identical
// to the deleted one — the property that makes the committed artifact
// tables regenerable.
func TestBenchArtifactBaselineSchemaAndClaims(t *testing.T) {
	var doc artifactDoc
	loadBaseline(t, "BENCH_8.json", &doc)
	if doc.Table != "artifact" || doc.Grid != "quick" || doc.Artifact == "" {
		t.Fatalf("baseline header = (%q, artifact=%q, grid=%q), want (artifact, <name>, quick)",
			doc.Table, doc.Artifact, doc.Grid)
	}
	if doc.TotalRuns <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header has non-positive dimensions: %+v", doc)
	}
	if !doc.RegeneratedIdentical {
		t.Error("baseline records a regenerated envelope that differs from the deleted one")
	}
	rows := make(map[string]artifactRow, len(doc.Rows))
	for _, row := range doc.Rows {
		if row.Seconds <= 0 || row.RunsExecuted+row.RunsSkipped != doc.TotalRuns {
			t.Errorf("row %+v has non-positive time or does not cover all %d runs", row, doc.TotalRuns)
		}
		rows[row.Phase] = row
	}
	for _, phase := range []string{"cold", "warm", "delete_one"} {
		if _, ok := rows[phase]; !ok {
			t.Fatalf("baseline is missing the %q phase", phase)
		}
	}
	if cold := rows["cold"]; cold.RunsExecuted != doc.TotalRuns {
		t.Errorf("cold phase executed %d of %d runs, want all", cold.RunsExecuted, doc.TotalRuns)
	}
	if warm := rows["warm"]; warm.RunsExecuted != 0 {
		t.Errorf("warm phase executed %d runs, want 0 (everything fresh)", warm.RunsExecuted)
	}
	if del := rows["delete_one"]; del.RunsExecuted != 1 {
		t.Errorf("delete_one phase executed %d runs, want exactly the deleted one", del.RunsExecuted)
	}
}

// TestBenchFaultsBaselineSchemaAndClaims pins BENCH_9.json, the faults
// table's baseline: consulting an armed-but-idle fault injector on every
// send and fault-point costs at most 2% over the nil injector, and a
// supervised mid-run crash recovers on both engines with exactly one
// restart and non-zero recovery accounting.
func TestBenchFaultsBaselineSchemaAndClaims(t *testing.T) {
	var doc faultsDoc
	loadBaseline(t, "BENCH_9.json", &doc)
	if doc.Table != "faults" || doc.Ranks < 2 || doc.SSets <= 0 || doc.Generations <= 0 || doc.GoMaxProcs <= 0 {
		t.Fatalf("baseline header = %+v, want table=faults with positive dimensions", doc)
	}
	ov := doc.Overhead
	if ov.BaselineSeconds <= 0 || ov.ArmedIdleSeconds <= 0 || ov.Repeats < 3 {
		t.Fatalf("overhead block %+v has non-positive measurements or too few repeats", ov)
	}
	if ov.OverheadRatio <= 0 || ov.OverheadRatio > 1.02 {
		t.Errorf("injector-off overhead ratio = %.4f, claim is <= 1.02 (2%%)", ov.OverheadRatio)
	}
	engines := map[string]bool{}
	for _, row := range doc.Recovery {
		engines[row.Engine] = true
		if row.Spec == "" || row.SegmentEvery <= 0 {
			t.Errorf("recovery row %+v is missing its fault spec or cadence", row)
		}
		if row.Restarts != 1 {
			t.Errorf("recovery row %q: %d restarts, want exactly 1 (one-shot crash)", row.Engine, row.Restarts)
		}
		if row.FaultFreeSeconds <= 0 || row.RecoveredSeconds <= 0 || row.RecoverySeconds <= 0 {
			t.Errorf("recovery row %q has non-positive timings: %+v", row.Engine, row)
		}
		if row.RecoverySeconds >= row.RecoveredSeconds {
			t.Errorf("recovery row %q: recovery accounting %.4fs exceeds the whole run %.4fs",
				row.Engine, row.RecoverySeconds, row.RecoveredSeconds)
		}
	}
	for _, engine := range []string{"serial", "parallel"} {
		if !engines[engine] {
			t.Errorf("baseline is missing the %q recovery row", engine)
		}
	}
}

// keyPaths returns the object key paths of a JSON document, with the
// elements of an array merged under "[]".
func keyPaths(t *testing.T, raw []byte) map[string]bool {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	paths := map[string]bool{}
	var walk func(v any, prefix string)
	walk = func(v any, prefix string) {
		switch x := v.(type) {
		case map[string]any:
			for k, e := range x {
				paths[prefix+"."+k] = true
				walk(e, prefix+"."+k)
			}
		case []any:
			for _, e := range x {
				walk(e, prefix+"[]")
			}
		}
	}
	walk(v, "")
	return paths
}

// TestJSONTablesMatchBaselines runs every -json table at the baselines'
// seed and checks that its document decodes strictly into the table's type
// and carries exactly the key set of the committed baseline.
func TestJSONTablesMatchBaselines(t *testing.T) {
	docs := map[string]func() any{
		"kernel":   func() any { return new(kernelDoc) },
		"batch":    func() any { return new(batchDoc) },
		"ensemble": func() any { return new(ensembleDoc) },
		"artifact": func() any { return new(artifactDoc) },
		"faults":   func() any { return new(faultsDoc) },
	}
	for _, jt := range jsonTables {
		jt := jt
		t.Run(jt.name, func(t *testing.T) {
			if jt.name == "batch" && testing.Short() {
				t.Skip("the batch table takes seconds; skipped in -short mode")
			}
			newDoc, ok := docs[jt.name]
			if !ok {
				t.Fatalf("no document type for the %q table", jt.name)
			}
			var out bytes.Buffer
			if err := jt.run(options{seed: 2013, jsonOut: true, out: &out}); err != nil {
				t.Fatal(err)
			}
			if err := decodeStrict(bytes.NewReader(out.Bytes()), newDoc()); err != nil {
				t.Fatalf("-json output does not decode strictly: %v\n%s", err, out.Bytes())
			}
			committed, err := os.ReadFile(baselinePath(jt.baseline))
			if err != nil {
				t.Fatalf("reading committed baseline: %v", err)
			}
			fresh, want := keyPaths(t, out.Bytes()), keyPaths(t, committed)
			if !maps.Equal(fresh, want) {
				var extra, missing []string
				for k := range fresh {
					if !want[k] {
						extra = append(extra, k)
					}
				}
				for k := range want {
					if !fresh[k] {
						missing = append(missing, k)
					}
				}
				sort.Strings(extra)
				sort.Strings(missing)
				t.Errorf("-json keys differ from %s: extra %v, missing %v", jt.baseline, extra, missing)
			}
		})
	}
}
