package evogame

// Checkpoint-bytes golden: the SHA-256 of every periodic and final
// envelope of four runs (CheckpointEvery 50 over 150 generations), recorded
// before the run lifecycle moved into the Nature Agent.  The envelope is
// the whole resume state — table, streams, counters, identity — so any
// change to the stream layout, the initial table, the run identity or the
// save cadence shows up here as a diff against history.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
	"time"

	"evogame/internal/checkpoint"
	"evogame/internal/fitness"
	"evogame/internal/parallel"
	"evogame/internal/population"
)

// goldenEnvelopes maps each run to the SHA-256 of the envelope on disk
// after each save, in generation order.
var goldenEnvelopes = map[string][]string{
	"serial-noisy-full": {
		"f35623a4acde51d25b8d78d0b07ea3acc37300d30ec42883b086e2790d6157a2",
		"e264f9d7a135b34e81d6f3ead63801e6858a5f5b178fe451d83e275ee142bcfa",
		"bb45a5ddedb6857afd1151d0cafb31add92990dc8e3ed84c5491b711f5bc4642",
		"49fe1bb91ee0431640857cb61489ac0444d20b30a767b93f7c3469f6464202e5",
	},
	"serial-incremental": {
		"e9d5b1ff813e107e633b0b0766e21da8951f1a7ac5612c05f76a7b3bab6e2ea2",
		"710dcf5571dd76fb32a66186fa052ba7198aea216ef6bc5037a5f8f1d813656b",
		"9a515a6157e7378b72fd6a691079f2c0f1050d4497000b81cfb9baea60344b6e",
		"e6802e4948fde0d570e7be14139e129c8a0c8aa0ccfd4b0001eee35a6290551c",
	},
	// A resumed run writes the uninterrupted run's envelopes from 100 on.
	"serial-resumed": {
		"710dcf5571dd76fb32a66186fa052ba7198aea216ef6bc5037a5f8f1d813656b",
		"9a515a6157e7378b72fd6a691079f2c0f1050d4497000b81cfb9baea60344b6e",
		"e6802e4948fde0d570e7be14139e129c8a0c8aa0ccfd4b0001eee35a6290551c",
	},
	"parallel-incremental-r4": {
		"c974b6d371ad929f88fc7b7136e4deb3374b41658ee21c8b9bfc1f1fd74aea73",
		"a939bd98d060fcea425fe7a2823a429b954085691b234ef2173ae9d362cdf142",
		"9073a563a5a90b74e5101d6b5baebad537d2410f547bdb2cb57539d61ae80bdf",
	},
}

func envelopeHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), err
}

// envelopeTap is a fault injector that injects nothing: at rank 0's fault
// point of every generation that is a multiple of every, it hashes the
// envelope the previous generation's periodic save left at path.  A read
// failure fails the rank, and with it the run.
type envelopeTap struct {
	path   string
	every  int
	hashes []string
}

func (e *envelopeTap) Crash(rank, epoch int) error {
	if rank != 0 || epoch == 0 || epoch%e.every != 0 {
		return nil
	}
	h, err := envelopeHash(e.path)
	e.hashes = append(e.hashes, h)
	return err
}
func (e *envelopeTap) Drop(src, dst, epoch int) bool           { return false }
func (e *envelopeTap) Delay(src, dst, epoch int) time.Duration { return 0 }

// TestCheckpointEnvelopeGolden pins the bytes of every envelope the
// engines write: a noisy EvalFull and a noiseless EvalIncremental serial
// run, a 4-rank EvalIncremental distributed run and a serial run resumed
// from its 50-generation checkpoint.  The serial runs advance in 50-
// generation Run calls, so each call's periodic save is read before the
// next; the last serial call adds 10 generations, whose envelope is a
// final (non-periodic) save.
func TestCheckpointEnvelopeGolden(t *testing.T) {
	const every, gens = 50, 150
	dir := t.TempDir()
	serial := func(name string, cfg population.Config) {
		cfg.CheckpointPath = filepath.Join(dir, name+".ckpt")
		cfg.CheckpointEvery = every
		m, err := population.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for m.Generation() < gens+10 {
			n := every
			if m.Generation() == gens {
				n = 10
			}
			if _, err := m.Run(context.Background(), n); err != nil {
				t.Fatal(err)
			}
			h, err := envelopeHash(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, h)
		}
		checkEnvelopes(t, name, got)
	}
	base := population.Config{
		NumSSets: 16, AgentsPerSSet: 1, MemorySteps: 2, Rounds: 50,
		PCRate: 1, MutationRate: 0.2, Seed: 2013, CheckpointLabel: "golden",
	}

	noisy := base
	noisy.Noise = 0.05
	noisy.EvalMode = fitness.EvalFull
	serial("serial-noisy-full", noisy)

	incr := base
	incr.EvalMode = fitness.EvalIncremental
	serial("serial-incremental", incr)

	// Resume the incremental run from its 50-generation envelope, written
	// by a separate 50-generation run.
	first := incr
	first.CheckpointPath = filepath.Join(dir, "first.ckpt")
	m, err := population.New(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(context.Background(), every); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(first.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed := incr
	resumed.Resume = &snap
	serial("serial-resumed", resumed)

	path := filepath.Join(dir, "parallel.ckpt")
	tap := &envelopeTap{path: path, every: every}
	if _, err := parallel.Run(parallel.Config{
		Ranks: 4, NumSSets: 16, AgentsPerSSet: 1, MemorySteps: 2, Rounds: 50,
		PCRate: 1, MutationRate: 0.2, Seed: 2013, Generations: gens,
		OptLevel: parallel.OptFusedFitness, EvalMode: fitness.EvalIncremental,
		CheckpointPath: path, CheckpointEvery: every, CheckpointLabel: "golden",
		Faults: tap,
	}); err != nil {
		t.Fatal(err)
	}
	h, err := envelopeHash(path)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelopes(t, "parallel-incremental-r4", append(tap.hashes, h))
}

func checkEnvelopes(t *testing.T, name string, got []string) {
	t.Helper()
	want := goldenEnvelopes[name]
	if len(got) != len(want) {
		t.Errorf("%s: %d envelopes, want %d", name, len(got), len(want))
		return
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: envelope %d sha256 %s, want %s", name, i, got[i], want[i])
		}
	}
}
