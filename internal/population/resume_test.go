package population

// Engine-level tests of the checkpoint/resume state: Snapshot and
// Config.Resume must round-trip a mid-run model bit-identically — including populations with
// mixed (probabilistic) strategies, which the old CLI snapshot path lost by
// re-parsing rendered move-table strings — and Run's periodic cadence must
// leave a resumable file behind.

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"evogame/internal/checkpoint"
	"evogame/internal/strategy"
)

// mixedResumeConfig is a noisy run whose table starts with a mixed (GTFT)
// strategy, forcing the full evaluation path and keeping the game stream
// busy: the hardest case for a bit-identical resume.
func mixedResumeConfig(t *testing.T) Config {
	t.Helper()
	gtft, err := strategy.GTFT(1, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]strategy.Strategy, 8)
	initial[0] = gtft
	for i := 1; i < len(initial); i++ {
		initial[i] = strategy.WSLS(1)
	}
	return Config{
		NumSSets: 8, AgentsPerSSet: 2, MemorySteps: 1, Rounds: 10,
		Noise: 0.05, PCRate: 1, MutationRate: 0.3, Beta: 1, Seed: 99,
		InitialStrategies: initial,
	}
}

func stepN(t *testing.T, m *Model, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotRestoreMidRunMixed drives a noisy mixed-strategy model to
// generation 15, checkpoints it through a real file, and verifies that the
// restored model's next 15 generations match the uninterrupted model's —
// and that the mixed strategy survived the file round trip typed, not as a
// lossy display string.
func TestSnapshotRestoreMidRunMixed(t *testing.T) {
	cfg := mixedResumeConfig(t)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepN(t, m, 15)

	path := filepath.Join(t.TempDir(), "mid.ckpt")
	if err := checkpoint.Save(path, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	foundMixed := false
	for _, s := range snap.Strategies {
		if _, ok := s.(*strategy.Mixed); ok {
			foundMixed = true
		}
	}
	if !foundMixed && !snap.Strategies[0].Equal(m.Strategies()[0]) {
		t.Fatal("checkpoint lost the typed strategy table")
	}

	// Reference: the uninterrupted model continues.
	stepN(t, m, 15)

	restoreCfg := mixedResumeConfig(t)
	restoreCfg.InitialStrategies = nil
	restoreCfg.Resume = &snap
	restored, err := New(restoreCfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Generation() != 15 {
		t.Fatalf("restored generation = %d, want 15", restored.Generation())
	}
	stepN(t, restored, 15)

	if restored.Generation() != m.Generation() {
		t.Fatalf("generation diverged: %d vs %d", restored.Generation(), m.Generation())
	}
	want, got := m.Strategies(), restored.Strategies()
	for i := range want {
		if !want[i].Equal(got[i]) {
			t.Fatalf("strategy %d diverged after resume: %v vs %v", i, got[i], want[i])
		}
	}
	if m.NatureStats() != restored.NatureStats() {
		t.Fatalf("event trace diverged: %+v vs %+v", restored.NatureStats(), m.NatureStats())
	}
	if m.GamesPlayed() != restored.GamesPlayed() {
		t.Fatalf("game counter diverged: %d vs %d", restored.GamesPlayed(), m.GamesPlayed())
	}
}

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
