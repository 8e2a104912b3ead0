package evogame

// Resume-equivalence tests for the checkpoint/resume subsystem: for every
// engine, topology and eval mode in the matrix, a run of 2N generations
// must be bit-identical — same final strategy table, same cumulative event
// counts — to running N generations, checkpointing, and resuming N more
// from the file.  Pre-v4 (final-only) checkpoints must still restore as a
// warm start, and identity mismatches must be rejected instead of silently
// producing a diverged run.

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evogame/internal/checkpoint"
	"evogame/internal/strategy"
)

// TestResumeBitIdentical is the resume guarantee of the checkpoint
// subsystem, pinned across the scenario matrix: for each engine × topology
// × eval mode (plus a noisy case that keeps the game-play streams hot), a
// run of 2N generations is bit-identical — same final strategy table, same
// cumulative event counts — to run-N → checkpoint → resume-N.  The configs
// use a PC event every generation and frequent mutations so any unrestored
// RNG stream diverges within a few generations.
func TestResumeBitIdentical(t *testing.T) {
	const n = 40
	cases := []struct {
		topo  string
		eval  EvalMode
		noise float64
	}{
		{"wellmixed", EvalFull, 0},
		{"wellmixed", EvalIncremental, 0},
		{"ring:4", EvalFull, 0},
		{"ring:4", EvalIncremental, 0},
		{"wellmixed", EvalFull, 0.05},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("serial/%s/%v/noise=%v", tc.topo, tc.eval, tc.noise), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")

			full, err := Simulate(context.Background(), serialResumeConfig(2*n, tc.noise, tc.topo, tc.eval, ""))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Simulate(context.Background(), serialResumeConfig(n, tc.noise, tc.topo, tc.eval, ckpt)); err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeSimulation(context.Background(), ckpt, serialResumeConfig(n, tc.noise, tc.topo, tc.eval, ""))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Generations != 2*n {
				t.Fatalf("resumed run reports %d generations, want %d", resumed.Generations, 2*n)
			}
			compareRuns(t, full.FinalStrategies, resumed.FinalStrategies,
				[3]int{full.PCEvents, full.Adoptions, full.Mutations},
				[3]int{resumed.PCEvents, resumed.Adoptions, resumed.Mutations})
		})
		t.Run(fmt.Sprintf("parallel/%s/%v/noise=%v", tc.topo, tc.eval, tc.noise), func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "run.ckpt")

			full, err := SimulateParallel(parallelResumeConfig(2*n, tc.noise, tc.topo, tc.eval, ""))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := SimulateParallel(parallelResumeConfig(n, tc.noise, tc.topo, tc.eval, ckpt)); err != nil {
				t.Fatal(err)
			}
			resumed, err := ResumeParallelSimulation(ckpt, parallelResumeConfig(n, tc.noise, tc.topo, tc.eval, ""))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Generations != 2*n {
				t.Fatalf("resumed run reports %d generations, want %d", resumed.Generations, 2*n)
			}
			compareRuns(t, full.FinalStrategies, resumed.FinalStrategies,
				[3]int{full.PCEvents, full.Adoptions, full.Mutations},
				[3]int{resumed.PCEvents, resumed.Adoptions, resumed.Mutations})
		})
	}
}

func serialResumeConfig(gens int, noise float64, topo string, eval EvalMode, ckpt string) SimulationConfig {
	return SimulationConfig{
		NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		Noise: noise, PCRate: 1, MutationRate: 0.25, Beta: 1,
		Generations: gens, Seed: 2013, Topology: topo, EvalMode: eval,
		CheckpointPath: ckpt,
	}
}

func parallelResumeConfig(gens int, noise float64, topo string, eval EvalMode, ckpt string) ParallelConfig {
	return ParallelConfig{
		Ranks: 3, NumSSets: 12, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 20,
		Noise: noise, PCRate: 1, MutationRate: 0.25, Beta: 1,
		Generations: gens, Seed: 2013, Topology: topo, EvalMode: eval,
		CheckpointPath: ckpt,
	}
}

func compareRuns(t *testing.T, fullStrats, resumedStrats []string, fullEvents, resumedEvents [3]int) {
	t.Helper()
	if len(fullStrats) != len(resumedStrats) {
		t.Fatalf("strategy table length %d vs %d", len(resumedStrats), len(fullStrats))
	}
	for i := range fullStrats {
		if fullStrats[i] != resumedStrats[i] {
			t.Fatalf("strategy %d diverged after resume: %q vs %q", i, resumedStrats[i], fullStrats[i])
		}
	}
	if fullEvents != resumedEvents {
		t.Fatalf("event trace diverged after resume: [pc adopt mut] = %v vs %v", resumedEvents, fullEvents)
	}
}

// TestResumePeriodicCheckpoint exercises the CheckpointEvery cadence at
// the facade level: a run that stops at N with a periodic cadence leaves a
// resumable file that continues to exactly the uninterrupted 2N state.
// (The genuinely-killed-mid-Run variant, where the file holds an arbitrary
// cadence generation, lives in internal/population's
// TestInterruptedRunResumes.)
func TestResumePeriodicCheckpoint(t *testing.T) {
	const n = 30
	dir := t.TempDir()
	mid := filepath.Join(dir, "mid.ckpt")

	// Interrupted run: stop at n with a cadence that fired at 10, 20 and
	// (coinciding with the final write) at n.
	cfg := serialResumeConfig(n, 0.05, "ring:4", EvalFull, mid)
	cfg.CheckpointEvery = 10
	if _, err := Simulate(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Resume || snap.Generation != n {
		t.Fatalf("periodic checkpoint: Resume=%v Generation=%d, want resumable at %d", snap.Resume, snap.Generation, n)
	}

	full, err := Simulate(context.Background(), serialResumeConfig(2*n, 0.05, "ring:4", EvalFull, ""))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeSimulation(context.Background(), mid, serialResumeConfig(n, 0.05, "ring:4", EvalFull, ""))
	if err != nil {
		t.Fatal(err)
	}
	compareRuns(t, full.FinalStrategies, resumed.FinalStrategies,
		[3]int{full.PCEvents, full.Adoptions, full.Mutations},
		[3]int{resumed.PCEvents, resumed.Adoptions, resumed.Mutations})
}

// envelopeV3 mirrors the gob envelope exactly as the topology era wrote it
// (format version 3: no resume state).
type envelopeV3 struct {
	Version     int
	Generation  int
	Seed        uint64
	MemorySteps int
	Game        string
	Payoff      [4]float64
	UpdateRule  string
	Topology    string
	Label       string
	Strategies  [][]byte
}

// TestResumeV3FinalSnapshotOnly pins the pre-v4 compatibility contract: a
// version-3 checkpoint still loads, comes back marked non-resumable, and
// ResumeSimulation restores it as a warm start — the typed strategy table
// and the generation counter carry over and the run continues from there.
func TestResumeV3FinalSnapshotOnly(t *testing.T) {
	const ssets = 12
	old := envelopeV3{
		Version:     3,
		Generation:  500,
		Seed:        2013,
		MemorySteps: 1,
		Game:        "ipd",
		Payoff:      [4]float64{3, 0, 4, 1},
		UpdateRule:  "fermi",
		Topology:    "wellmixed",
		Label:       "topology-era run",
		Strategies:  make([][]byte, ssets),
	}
	for i := range old.Strategies {
		enc, err := strategy.Encode(strategy.WSLS(1))
		if err != nil {
			t.Fatal(err)
		}
		old.Strategies[i] = enc
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("v3 checkpoint failed to load: %v", err)
	}
	if snap.Resume {
		t.Fatal("v3 checkpoint claims to be resumable")
	}

	cfg := serialResumeConfig(40, 0.05, "wellmixed", EvalFull, "")
	res, err := ResumeSimulation(context.Background(), path, cfg)
	if err != nil {
		t.Fatalf("v3 warm-start restore failed: %v", err)
	}
	if res.Generations != 540 {
		t.Fatalf("warm start reports %d generations, want 540 (500 restored + 40 run)", res.Generations)
	}
	if len(res.FinalStrategies) != ssets {
		t.Fatalf("warm start lost the table: %d strategies", len(res.FinalStrategies))
	}
}

// TestResumeRejectsMismatch ensures a checkpoint cannot silently resume
// into a run it does not describe: wrong seed, wrong topology, wrong
// engine, or a caller-supplied initial table.
func TestResumeRejectsMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := Simulate(context.Background(), serialResumeConfig(20, 0, "ring:4", EvalFull, ckpt)); err != nil {
		t.Fatal(err)
	}

	bad := serialResumeConfig(10, 0, "ring:4", EvalFull, "")
	bad.Seed = 999
	if _, err := ResumeSimulation(context.Background(), ckpt, bad); err == nil {
		t.Error("resume accepted a mismatched seed")
	}
	bad = serialResumeConfig(10, 0, "torus:moore", EvalFull, "")
	bad.NumSSets = 16
	if _, err := ResumeSimulation(context.Background(), ckpt, bad); err == nil {
		t.Error("resume accepted a mismatched topology and shape")
	}
	withTable := serialResumeConfig(10, 0, "ring:4", EvalFull, "")
	withTable.InitialStrategies = make([]string, 12)
	for i := range withTable.InitialStrategies {
		withTable.InitialStrategies[i] = "0110"
	}
	if _, err := ResumeSimulation(context.Background(), ckpt, withTable); err == nil {
		t.Error("resume accepted caller-supplied InitialStrategies")
	}
}

// TestResumeRejectsOtherEnginesSnapshot pins the engine match: the two
// engines record different stream sets, so each refuses the other's
// resume snapshot with an error naming both engines.
func TestResumeRejectsOtherEnginesSnapshot(t *testing.T) {
	dir := t.TempDir()
	serialCkpt, parallelCkpt := filepath.Join(dir, "serial.ckpt"), filepath.Join(dir, "parallel.ckpt")
	if _, err := Simulate(context.Background(), serialResumeConfig(20, 0, "ring:4", EvalFull, serialCkpt)); err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateParallel(parallelResumeConfig(20, 0, "ring:4", EvalFull, parallelCkpt)); err != nil {
		t.Fatal(err)
	}
	_, err := ResumeParallelSimulation(serialCkpt, parallelResumeConfig(10, 0, "ring:4", EvalFull, ""))
	if err == nil || !strings.Contains(err.Error(), "parallel engine") || !strings.Contains(err.Error(), `"serial"`) {
		t.Errorf("parallel resume of a serial snapshot: err = %v, want a rejection naming both engines", err)
	}
	_, err = ResumeSimulation(context.Background(), parallelCkpt, serialResumeConfig(10, 0, "ring:4", EvalFull, ""))
	if err == nil || !strings.Contains(err.Error(), "serial engine") || !strings.Contains(err.Error(), `"parallel"`) {
		t.Errorf("serial resume of a parallel snapshot: err = %v, want a rejection naming both engines", err)
	}
}

// TestResumeFaultPlanSupervised pins that a resumed run takes the same
// supervised path as a fresh one: resuming a 50-generation checkpoint under
// a crash at generation 60 with MaxRestarts 3 recovers from the
// supervisor's segments and ends on the fault-free resume's final table,
// event counts and (serial) samples.
func TestResumeFaultPlanSupervised(t *testing.T) {
	const n = 50
	t.Run("serial", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		first := serialResumeConfig(n, 0.05, "wellmixed", EvalFull, ckpt)
		first.SampleEvery = 10
		if _, err := Simulate(context.Background(), first); err != nil {
			t.Fatal(err)
		}
		cfg := serialResumeConfig(n, 0.05, "wellmixed", EvalFull, "")
		cfg.SampleEvery = 10
		golden, err := ResumeSimulation(context.Background(), ckpt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan, cfg.MaxRestarts, cfg.SegmentEvery = "crash@60:r0", 3, 5
		res, err := ResumeSimulation(context.Background(), ckpt, cfg)
		if err != nil {
			t.Fatalf("supervised resume did not recover: %v", err)
		}
		if res.Metrics.Restarts < 1 || res.Generations != 2*n {
			t.Fatalf("Metrics.Restarts = %d, Generations = %d; want >= 1 and %d", res.Metrics.Restarts, res.Generations, 2*n)
		}
		compareRuns(t, golden.FinalStrategies, res.FinalStrategies,
			[3]int{golden.PCEvents, golden.Adoptions, golden.Mutations},
			[3]int{res.PCEvents, res.Adoptions, res.Mutations})
		if fmt.Sprint(golden.Samples) != fmt.Sprint(res.Samples) {
			t.Fatalf("samples diverged after recovery:\n%v\nvs\n%v", res.Samples, golden.Samples)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		if _, err := SimulateParallel(parallelResumeConfig(n, 0.05, "wellmixed", EvalFull, ckpt)); err != nil {
			t.Fatal(err)
		}
		cfg := parallelResumeConfig(n, 0.05, "wellmixed", EvalFull, "")
		golden, err := ResumeParallelSimulation(ckpt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan, cfg.MaxRestarts, cfg.SegmentEvery = "crash@60:r1", 3, 5
		res, err := ResumeParallelSimulation(ckpt, cfg)
		if err != nil {
			t.Fatalf("supervised resume did not recover: %v", err)
		}
		if res.Metrics.Restarts < 1 || res.Generations != 2*n {
			t.Fatalf("Metrics.Restarts = %d, Generations = %d; want >= 1 and %d", res.Metrics.Restarts, res.Generations, 2*n)
		}
		compareRuns(t, golden.FinalStrategies, res.FinalStrategies,
			[3]int{golden.PCEvents, golden.Adoptions, golden.Mutations},
			[3]int{res.PCEvents, res.Adoptions, res.Mutations})
	})
}
