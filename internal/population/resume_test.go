package population

// Engine-level tests of the checkpoint/resume state: Snapshot and
// Config.Resume must round-trip a mid-run model bit-identically, and Run's
// periodic cadence must leave a resumable file behind.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"evogame/internal/checkpoint"
)

// TestRunFinalCheckpoint verifies the end-of-run write: Run leaves a
// resumable serial-engine snapshot at the configured path, recording the
// engine-reported generation (not a configured count) and both streams.
func TestRunFinalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{
		NumSSets: 6, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10,
		PCRate: 1, MutationRate: 0.3, Seed: 5,
		CheckpointPath: path, CheckpointEvery: 7,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation != 10 {
		t.Fatalf("checkpoint records generation %d, want the engine-reported 10", snap.Generation)
	}
	if !snap.Resume || snap.Engine != checkpoint.EngineSerial {
		t.Fatalf("checkpoint not resumable: Resume=%v Engine=%q", snap.Resume, snap.Engine)
	}
	if _, ok := snap.Stream(checkpoint.StreamNature); !ok {
		t.Fatal("checkpoint missing the nature stream")
	}
	if _, ok := snap.Stream(checkpoint.StreamGame); !ok {
		t.Fatal("checkpoint missing the game stream")
	}
}

// TestInterruptedRunResumes is the crash-recovery scenario end to end: a
// long Run with a periodic cadence is cancelled as soon as the first
// checkpoint hits disk — at an arbitrary, scheduling-dependent generation —
// and the run restored from whatever the file holds must finish with a
// state bit-identical to an uninterrupted run's.  The cancellation point is
// deliberately racy; the resume guarantee is exactly that it does not
// matter where the interruption lands.
func TestInterruptedRunResumes(t *testing.T) {
	const total = 4000
	path := filepath.Join(t.TempDir(), "kill.ckpt")
	cfg := Config{
		NumSSets: 8, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10,
		Noise: 0.05, PCRate: 1, MutationRate: 0.3, Seed: 31,
		CheckpointPath: path, CheckpointEvery: 5,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := os.Stat(path); err == nil {
				cancel()
				return
			}
			select {
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
	_, runErr := m.Run(ctx, total)
	cancel()
	<-done
	if runErr == nil {
		t.Log("run completed before the kill landed; resume degenerates to a no-op continuation")
	} else if runErr != context.Canceled {
		t.Fatal(runErr)
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation == 0 || snap.Generation%cfg.CheckpointEvery != 0 && snap.Generation != total {
		t.Fatalf("checkpoint at generation %d does not match the cadence", snap.Generation)
	}

	refCfg := cfg
	refCfg.CheckpointPath, refCfg.CheckpointEvery = "", 0
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Run(context.Background(), total); err != nil {
		t.Fatal(err)
	}

	resumeCfg := refCfg
	resumeCfg.Resume = &snap
	restored, err := New(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Run(context.Background(), total-snap.Generation); err != nil {
		t.Fatal(err)
	}
	want, got := ref.Strategies(), restored.Strategies()
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("strategy %d diverged after the kill/resume (checkpoint was at generation %d)", i, snap.Generation)
		}
	}
	if ref.NatureStats() != restored.NatureStats() {
		t.Fatalf("event trace diverged after the kill/resume: %+v vs %+v", restored.NatureStats(), ref.NatureStats())
	}
}

// TestCheckpointConfigValidation covers the new Config invariants.
func TestCheckpointConfigValidation(t *testing.T) {
	base := Config{NumSSets: 4, AgentsPerSSet: 1, MemorySteps: 1, Rounds: 10}
	bad := base
	bad.CheckpointEvery = -1
	if _, err := New(bad); err == nil {
		t.Error("accepted a negative CheckpointEvery")
	}
	bad = base
	bad.CheckpointEvery = 5
	if _, err := New(bad); err == nil {
		t.Error("accepted CheckpointEvery without CheckpointPath")
	}
}
