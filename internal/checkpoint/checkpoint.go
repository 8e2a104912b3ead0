// Package checkpoint persists and restores the state of a long evolutionary
// run: the generation counter, the configuration fingerprint, and the full
// strategy table.  The paper's production runs span 10^7 generations; a
// checkpoint lets such runs be resumed after an interruption and lets the
// validation tooling post-process a finished population (for example the
// k-means clustering of Figure 2) without re-running the simulation.
//
// The format is a small gob-encoded envelope around the strategy codec of
// internal/strategy, so it remains readable as the internal strategy types
// evolve.  Since format version 4 a snapshot can carry full resume state —
// the named RNG stream states and the Nature Agent's event counters — from
// which either engine continues a run bit-identically; Save is atomic and
// durable (unique temp file, fsync, rename, directory fsync), so a crash
// mid-write never corrupts the previous checkpoint.  See docs/CHECKPOINT.md
// for the field-by-field format and the compatibility matrix.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"evogame/internal/dynamics"
	"evogame/internal/game"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// Snapshot is the state captured by a checkpoint.
type Snapshot struct {
	// Generation is the number of generations completed when the snapshot
	// was taken.
	Generation int
	// Seed is the run's seed, recorded so a restored run can be identified.
	Seed uint64
	// MemorySteps is the memory depth of the strategies.
	MemorySteps int
	// Game is the name of the scenario the run played ("ipd", "snowdrift",
	// ...) and Payoff its effective payoff values as [R, S, T, P].
	// Checkpoints written before the scenario registry (format version 1)
	// restore with the paper's IPD defaults.
	Game   string
	Payoff [4]float64
	// UpdateRule is the name of the adoption rule the run used ("fermi",
	// "imitation", "moran"); version-1 checkpoints restore as "fermi".
	UpdateRule string
	// Topology is the canonical spec string of the interaction graph the
	// run evolved on ("wellmixed", "ring:4", "torus:moore",
	// "smallworld:4:0.1"); checkpoints written before the topology layer
	// (format versions 1 and 2) restore as "wellmixed", which is what those
	// runs played by construction.
	Topology string
	// Strategies is the strategy table, one entry per SSet.
	Strategies []strategy.Strategy
	// Label is free-form metadata (experiment name, parameters).
	Label string

	// Resume reports whether the snapshot carries the mid-run resume state
	// below (format version 4).  Final-only snapshots — and every envelope
	// written before version 4 — leave it false; such snapshots can still
	// seed a warm start from their strategy table, but not a bit-identical
	// continuation.
	Resume bool
	// Engine records which engine exported the resume state, EngineSerial
	// or EngineParallel.  The two engines consume different stream sets, so
	// a resume snapshot only restores into the engine that wrote it.
	Engine string
	// Streams holds the named RNG stream states captured at Generation.
	// The serial engine records StreamNature and StreamGame; the parallel
	// engine records only StreamNature, because its per-(generation, SSet)
	// noise streams are derived statelessly from (Seed, generation, SSet id)
	// and Generation re-derives them exactly.
	Streams []Stream
	// PCEvents, Adoptions and Mutations are the Nature Agent's cumulative
	// event counters at Generation, restored so a resumed run's event trace
	// continues instead of restarting from zero.
	PCEvents  int
	Adoptions int
	Mutations int
	// GamesPlayed is the engine's cumulative game counter at Generation
	// where the engine tracks one (the serial engine's full evaluation
	// path); zero otherwise.
	GamesPlayed int64
}

// Stream records the state of one named RNG stream inside a resume
// snapshot.
type Stream struct {
	// Name identifies the stream (StreamNature, StreamGame).
	Name string
	// State is the xoshiro256** state exported by rng.Source.State.
	State [4]uint64
}

// Engine identities recorded in resume snapshots.
const (
	EngineSerial   = "serial"
	EngineParallel = "parallel"
)

// Stream names recorded in resume snapshots.
const (
	// StreamNature is the Nature Agent's event stream (both engines).
	StreamNature = "nature"
	// StreamGame is the serial engine's game-play stream, split per noisy
	// game of a fitness evaluation.
	StreamGame = "game"
)

// Stream returns the state of the named RNG stream and whether the snapshot
// carries it.
func (s Snapshot) Stream(name string) ([4]uint64, bool) {
	for _, st := range s.Streams {
		if st.Name == name {
			return st.State, true
		}
	}
	return [4]uint64{}, false
}

// Identity is the run identity an engine resolves from its configuration:
// everything a snapshot records about the run that produced it.  Parameters
// a snapshot does not record (noise, rounds, rates) are the caller's
// responsibility to pass unchanged.
type Identity struct {
	NumSSets    int
	MemorySteps int
	Seed        uint64
	Game        string
	Payoff      [4]float64
	UpdateRule  string
	Topology    string
}

// NewIdentity resolves the identity of a run from its configuration,
// mapping the zero-value Game to the paper's IPD and the nil rule to
// "fermi" exactly as the engines resolve them.  nature.Start builds each
// run's identity here once; resumes are checked against it and snapshots
// stamped with it.
func NewIdentity(numSSets, memorySteps int, seed uint64, spec game.Spec, rule dynamics.Rule, topo topology.Spec) Identity {
	if spec.Name == "" {
		spec = game.IPD()
	}
	ruleName := "fermi"
	if rule != nil {
		ruleName = rule.Name()
	}
	return Identity{
		NumSSets:    numSSets,
		MemorySteps: memorySteps,
		Seed:        seed,
		Game:        spec.Name,
		Payoff:      spec.Payoff.Table(),
		UpdateRule:  ruleName,
		Topology:    topo.String(),
	}
}

// CheckIdentity verifies field by field that the snapshot was produced by a
// run with the given identity, so a checkpoint cannot silently resume into
// a run it does not describe, and that a resumable snapshot was exported by
// engine (EngineSerial or EngineParallel): the two engines consume
// different stream sets.  A final-only snapshot warm starts either engine.
// Every engine's resume is validated here, by nature.Start.
func (s Snapshot) CheckIdentity(engine string, id Identity) error {
	if len(s.Strategies) != id.NumSSets {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot holds %d strategies, config has %d SSets", engine, len(s.Strategies), id.NumSSets)
	}
	if s.MemorySteps != id.MemorySteps {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot memory depth %d, config has %d", engine, s.MemorySteps, id.MemorySteps)
	}
	if s.Seed != id.Seed {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot seed %d, config has %d", engine, s.Seed, id.Seed)
	}
	if s.Game != id.Game {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot game %q, config plays %q", engine, s.Game, id.Game)
	}
	if s.Payoff != id.Payoff {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot payoff %v, config uses %v", engine, s.Payoff, id.Payoff)
	}
	if s.UpdateRule != id.UpdateRule {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot update rule %q, config uses %q", engine, s.UpdateRule, id.UpdateRule)
	}
	if s.Topology != id.Topology {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot topology %q, config uses %q", engine, s.Topology, id.Topology)
	}
	if s.Resume && s.Engine != engine {
		return fmt.Errorf("checkpoint: resuming the %s engine: snapshot carries %q-engine resume state", engine, s.Engine)
	}
	return nil
}

// envelope is the gob-encoded on-disk representation.  Version 2 added the
// Game, Payoff and UpdateRule fields; version 3 added Topology; version 4
// added the mid-run resume state (Resume, Engine, Streams, the event
// counters and GamesPlayed).  Gob's name-based decoding leaves newer fields
// zero when reading an older stream, and Read fills in the pre-registry /
// pre-topology defaults — for the version-4 fields the zero values already
// mean the right thing: an older envelope is a final-only snapshot
// (Resume == false).  See docs/CHECKPOINT.md for the field-by-field format
// and the compatibility matrix.
type envelope struct {
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
	Resume      bool
	Engine      string
	Streams     []Stream
	PCEvents    int
	Adoptions   int
	Mutations   int
	GamesPlayed int64
}

const formatVersion = 4

// defaultGame / defaultRule / defaultTopology are the identities every
// pre-registry, pre-topology run had.
const (
	defaultGame     = "ipd"
	defaultRule     = "fermi"
	defaultTopology = "wellmixed"
)

func standardPayoff() [4]float64 {
	return game.Standard().Table()
}

// Write serialises the snapshot to w.
func Write(w io.Writer, s Snapshot) error {
	if len(s.Strategies) == 0 {
		return fmt.Errorf("checkpoint: empty strategy table")
	}
	if s.Game == "" {
		s.Game = defaultGame
	}
	if s.UpdateRule == "" {
		s.UpdateRule = defaultRule
	}
	if s.Topology == "" {
		s.Topology = defaultTopology
	}
	if s.Payoff == ([4]float64{}) {
		// An all-zero payoff means "the scenario's canonical matrix"; record
		// the actual values so the checkpoint is self-describing even if the
		// registry's canonical payoff ever changes.  (A run that genuinely
		// played the all-zero generic matrix cannot be distinguished from an
		// unset field; its payoffs carry no information either way.)
		if spec, err := game.LookupSpec(s.Game); err == nil {
			s.Payoff = spec.Payoff.Table()
		}
	}
	if s.Resume {
		if s.Engine != EngineSerial && s.Engine != EngineParallel {
			return fmt.Errorf("checkpoint: resume snapshot has unknown engine %q", s.Engine)
		}
		if _, ok := s.Stream(StreamNature); !ok {
			return fmt.Errorf("checkpoint: resume snapshot is missing the %q stream", StreamNature)
		}
		for _, st := range s.Streams {
			if st.State == ([4]uint64{}) {
				return fmt.Errorf("checkpoint: stream %q has an all-zero RNG state", st.Name)
			}
		}
	}
	env := envelope{
		Version:     formatVersion,
		Generation:  s.Generation,
		Seed:        s.Seed,
		MemorySteps: s.MemorySteps,
		Game:        s.Game,
		Payoff:      s.Payoff,
		UpdateRule:  s.UpdateRule,
		Topology:    s.Topology,
		Label:       s.Label,
		Strategies:  make([][]byte, len(s.Strategies)),
		Resume:      s.Resume,
		Engine:      s.Engine,
		Streams:     s.Streams,
		PCEvents:    s.PCEvents,
		Adoptions:   s.Adoptions,
		Mutations:   s.Mutations,
		GamesPlayed: s.GamesPlayed,
	}
	for i, strat := range s.Strategies {
		if strat == nil {
			return fmt.Errorf("checkpoint: nil strategy at index %d", i)
		}
		enc, err := strategy.Encode(strat)
		if err != nil {
			return fmt.Errorf("checkpoint: encoding strategy %d: %w", i, err)
		}
		env.Strategies[i] = enc
	}
	return gob.NewEncoder(w).Encode(env)
}

// Read deserialises a snapshot from r.
func Read(r io.Reader) (Snapshot, error) {
	var env envelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: decoding: %w", err)
	}
	if env.Version < 1 || env.Version > formatVersion {
		return Snapshot{}, fmt.Errorf("checkpoint: unsupported format version %d", env.Version)
	}
	if env.Version == 1 {
		// Pre-registry checkpoints are IPD + Fermi by construction.
		env.Game = defaultGame
		env.Payoff = standardPayoff()
		env.UpdateRule = defaultRule
	}
	if env.Version <= 2 {
		// Pre-topology checkpoints (v1 and v2) are well-mixed by
		// construction.
		env.Topology = defaultTopology
	}
	if len(env.Strategies) == 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: empty strategy table")
	}
	// Reject envelopes no writer can produce (Write enforces the same
	// invariants), so a corrupt or hand-crafted file fails here with a clean
	// error instead of surfacing as an inconsistent snapshot downstream.
	if env.Generation < 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: negative generation %d", env.Generation)
	}
	if env.MemorySteps < 1 || env.MemorySteps > game.MaxMemorySteps {
		return Snapshot{}, fmt.Errorf("checkpoint: memory steps %d out of range", env.MemorySteps)
	}
	if env.PCEvents < 0 || env.Adoptions < 0 || env.Mutations < 0 || env.GamesPlayed < 0 {
		return Snapshot{}, fmt.Errorf("checkpoint: negative event counter (pc=%d adoptions=%d mutations=%d games=%d)",
			env.PCEvents, env.Adoptions, env.Mutations, env.GamesPlayed)
	}
	// Every writer since the named era fills these identity fields (Write
	// maps empty ones onto the defaults before encoding), so an envelope of
	// that era with an empty field cannot be a writer's output.
	if env.Game == "" || env.UpdateRule == "" {
		return Snapshot{}, fmt.Errorf("checkpoint: version-%d envelope is missing its game/update-rule identity", env.Version)
	}
	if env.Topology == "" {
		return Snapshot{}, fmt.Errorf("checkpoint: version-%d envelope is missing its topology identity", env.Version)
	}
	if env.Payoff == ([4]float64{}) {
		// Write resolves an all-zero payoff to the scenario's canonical
		// matrix before encoding; resolve it the same way here so the
		// snapshot is identical to what re-encoding would produce.
		if spec, err := game.LookupSpec(env.Game); err == nil {
			env.Payoff = spec.Payoff.Table()
		}
	}
	s := Snapshot{
		Generation:  env.Generation,
		Seed:        env.Seed,
		MemorySteps: env.MemorySteps,
		Game:        env.Game,
		Payoff:      env.Payoff,
		UpdateRule:  env.UpdateRule,
		Topology:    env.Topology,
		Label:       env.Label,
		Strategies:  make([]strategy.Strategy, len(env.Strategies)),
		Resume:      env.Resume,
		Engine:      env.Engine,
		Streams:     env.Streams,
		PCEvents:    env.PCEvents,
		Adoptions:   env.Adoptions,
		Mutations:   env.Mutations,
		GamesPlayed: env.GamesPlayed,
	}
	if env.Resume {
		if env.Engine != EngineSerial && env.Engine != EngineParallel {
			return Snapshot{}, fmt.Errorf("checkpoint: resume snapshot has unknown engine %q", env.Engine)
		}
		if _, ok := s.Stream(StreamNature); !ok {
			return Snapshot{}, fmt.Errorf("checkpoint: resume snapshot is missing the %q stream", StreamNature)
		}
		for _, st := range env.Streams {
			if st.State == ([4]uint64{}) {
				return Snapshot{}, fmt.Errorf("checkpoint: stream %q has an all-zero RNG state", st.Name)
			}
		}
	}
	for i, enc := range env.Strategies {
		strat, err := strategy.Decode(enc)
		if err != nil {
			return Snapshot{}, fmt.Errorf("checkpoint: decoding strategy %d: %w", i, err)
		}
		if got := strat.MemorySteps(); got != env.MemorySteps {
			return Snapshot{}, fmt.Errorf("checkpoint: strategy %d has memory depth %d, envelope declares %d",
				i, got, env.MemorySteps)
		}
		s.Strategies[i] = strat
	}
	return s, nil
}

// Save writes the snapshot atomically and durably to the given path: the
// envelope goes to a uniquely named temporary file in the target directory
// (so two runs sharing a checkpoint path cannot clobber each other's
// in-flight writes), is fsynced, renamed into place, and the directory is
// fsynced so the rename itself survives a crash.  A reader therefore sees
// either the previous checkpoint or the new one, never a torn or empty
// file.
func Save(path string, s Snapshot) error {
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		return err
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temporary file in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		return cleanup(fmt.Errorf("checkpoint: writing %s: %w", tmp, err))
	}
	// Flush the file contents before the rename: without this a crash
	// shortly after the rename can leave a zero-length "checkpoint" under
	// the final name.
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return cleanup(fmt.Errorf("checkpoint: closing %s: %w", tmp, err))
	}
	// CreateTemp creates the file 0600; widen to the conventional 0644.
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: setting permissions on %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: renaming into place: %w", err)
	}
	// Make the rename durable.  Directory fsync is unsupported on some
	// platforms; a failure there does not undo the atomic rename, so it is
	// deliberately non-fatal.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// RemoveStaleTemps deletes leftover "<path>.tmp-*" files that a crash
// between Save's temporary write and its rename can strand next to the
// checkpoint.  Supervised recovery calls it before every relaunch so an
// injected mid-Save crash cannot accumulate partial artifacts; it never
// touches the checkpoint itself, so the newest complete snapshot always
// survives.  It returns the paths removed.
func RemoveStaleTemps(path string) ([]string, error) {
	matches, err := filepath.Glob(path + ".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: globbing stale temporaries of %s: %w", path, err)
	}
	var removed []string
	for _, m := range matches {
		if err := os.Remove(m); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, fmt.Errorf("checkpoint: removing stale temporary %s: %w", m, err)
		}
		removed = append(removed, m)
	}
	return removed, nil
}

// Load reads a snapshot from the given path.
func Load(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, fmt.Errorf("checkpoint: opening %s: %w", path, err)
	}
	defer f.Close()
	return Read(f)
}
