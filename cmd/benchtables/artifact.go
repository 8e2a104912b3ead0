package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"evogame/internal/artifact"
	"evogame/internal/stats"
)

// The artifact table measures the paperkit pipeline's incremental runner:
// one quick-grid artifact is regenerated into a scratch directory cold
// (every envelope missing), warm (every envelope fresh) and after deleting
// a single envelope.  The claims BENCH_8.json pins are structural, not
// timing thresholds: cold executes every run, warm executes none, the
// deletion re-executes exactly one, and the re-executed envelope is
// byte-identical to the one that was deleted — the property that makes the
// committed artifact tables regenerable.
//
// The committed BENCH_8.json is this table's -json output; see
// docs/REPRODUCTION.md.

// artifactRow is one phase of the artifact table (and one row of the
// BENCH_8.json baseline).
type artifactRow struct {
	// Phase is "cold", "warm" or "delete_one".
	Phase string `json:"phase"`
	// RunsExecuted and RunsSkipped count the (cell, replicate) runs the
	// phase executed and found fresh.
	RunsExecuted int `json:"runs_executed"`
	RunsSkipped  int `json:"runs_skipped"`
	// Seconds is the phase's end-to-end Execute wall-clock.
	Seconds float64 `json:"seconds"`
}

// artifactDoc is the machine-readable envelope of the artifact table.
type artifactDoc struct {
	Table      string `json:"table"`
	Artifact   string `json:"artifact"`
	Grid       string `json:"grid"`
	TotalRuns  int    `json:"total_runs"`
	GoMaxProcs int    `json:"go_max_procs"`
	// RegeneratedIdentical reports whether the envelope re-executed in the
	// delete_one phase came back with the exact bytes of the deleted one.
	RegeneratedIdentical bool          `json:"regenerated_identical"`
	Rows                 []artifactRow `json:"rows"`
}

// tableArtifact measures the paperkit runner's cold/warm/delete-one phases
// on the figure3_ablation quick grid in a scratch directory.
func tableArtifact(opts options) error {
	const name = "figure3_ablation"
	a, err := artifact.Lookup(name)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "benchtables-artifact-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	doc := artifactDoc{
		Table:      "artifact",
		Artifact:   name,
		Grid:       artifact.GridName(true),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	cells := a.Grid(true)
	for _, cell := range cells {
		doc.TotalRuns += cell.Replicates
	}
	if !opts.jsonOut {
		header(opts, "Artifact table — paperkit incremental regeneration (quick grid, scratch directory)")
		fmt.Fprintf(opts.out, "workload: artifact %q, %d cells, %d runs\n", name, len(cells), doc.TotalRuns)
	}

	execute := func(phase string) (artifactRow, error) {
		start := time.Now()
		reports, err := artifact.Execute(context.Background(), dir, artifact.ExecuteOptions{
			Quick:     true,
			Artifacts: []string{name},
		})
		if err != nil {
			return artifactRow{}, err
		}
		row := artifactRow{Phase: phase, Seconds: time.Since(start).Seconds()}
		for _, r := range reports {
			row.RunsExecuted += len(r.Executed)
			row.RunsSkipped += len(r.Skipped)
		}
		return row, nil
	}

	t := stats.NewTable("Phase", "Executed", "Skipped", "Seconds")
	for _, phase := range []string{"cold", "warm", "delete_one"} {
		if phase == "delete_one" {
			victim := artifact.EnvelopePath(dir, true, name, cells[0], 0)
			before, err := os.ReadFile(victim)
			if err != nil {
				return err
			}
			if err := os.Remove(victim); err != nil {
				return err
			}
			row, err := execute(phase)
			if err != nil {
				return err
			}
			after, err := os.ReadFile(victim)
			if err != nil {
				return err
			}
			doc.RegeneratedIdentical = hash(before) == hash(after)
			doc.Rows = append(doc.Rows, row)
			t.AddRow(row.Phase, row.RunsExecuted, row.RunsSkipped, fmt.Sprintf("%.3f", row.Seconds))
			continue
		}
		row, err := execute(phase)
		if err != nil {
			return err
		}
		doc.Rows = append(doc.Rows, row)
		t.AddRow(row.Phase, row.RunsExecuted, row.RunsSkipped, fmt.Sprintf("%.3f", row.Seconds))
	}

	return emit(opts, doc, t,
		fmt.Sprintf("regenerated envelope byte-identical to the deleted one: %v", doc.RegeneratedIdentical),
		"note: freshness is decided per envelope (config fingerprint + generation count), so a",
		"partial regeneration executes exactly the missing runs and reproduces identical bytes.",
		"BENCH_8.json is this table's -json output; see docs/REPRODUCTION.md")
}

func hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
