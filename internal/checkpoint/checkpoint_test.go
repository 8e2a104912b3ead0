package checkpoint

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

func sampleSnapshot() Snapshot {
	src := rng.New(1)
	strategies := []strategy.Strategy{
		strategy.WSLS(2), strategy.AllD(2), strategy.RandomPure(2, src), strategy.TFT(2),
	}
	return Snapshot{
		Generation:  12345,
		Seed:        42,
		MemorySteps: 2,
		Strategies:  strategies,
		Label:       "unit-test",
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != snap.Generation || got.Seed != snap.Seed ||
		got.MemorySteps != snap.MemorySteps || got.Label != snap.Label {
		t.Fatalf("metadata did not round trip: %+v", got)
	}
	if len(got.Strategies) != len(snap.Strategies) {
		t.Fatalf("strategy count = %d", len(got.Strategies))
	}
	for i := range snap.Strategies {
		if !snap.Strategies[i].Equal(got.Strategies[i]) {
			t.Fatalf("strategy %d did not round trip", i)
		}
	}
}

func TestScenarioIdentityRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	snap.Game = "snowdrift"
	snap.Payoff = [4]float64{3, 2, 4, 0}
	snap.UpdateRule = "moran"
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Game != "snowdrift" || got.Payoff != snap.Payoff || got.UpdateRule != "moran" {
		t.Fatalf("scenario identity did not round trip: %+v", got)
	}
	// Unset identity defaults to the paper's scenario on write.
	var buf2 bytes.Buffer
	if err := Write(&buf2, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Game != "ipd" || got.UpdateRule != "fermi" || got.Payoff != standardPayoff() {
		t.Fatalf("unset scenario identity = %q/%q/%v, want ipd/fermi defaults", got.Game, got.UpdateRule, got.Payoff)
	}
	// A named game with an unset payoff records the scenario's canonical
	// matrix, not zeros; a custom payoff with an unset game is preserved.
	named := sampleSnapshot()
	named.Game = "snowdrift"
	var buf3 bytes.Buffer
	if err := Write(&buf3, named); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payoff != [4]float64{3, 2, 4, 0} {
		t.Fatalf("snowdrift payoff = %v, want the canonical [3 2 4 0]", got.Payoff)
	}
	custom := sampleSnapshot()
	custom.Payoff = [4]float64{5, 1, 6, 2}
	var buf4 bytes.Buffer
	if err := Write(&buf4, custom); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payoff != [4]float64{5, 1, 6, 2} {
		t.Fatalf("custom payoff clobbered: %v", got.Payoff)
	}
}

func TestTopologyIdentityRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	snap.Topology = "torus:moore"
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != "torus:moore" {
		t.Fatalf("topology identity did not round trip: %q", got.Topology)
	}
	// Unset topology defaults to the paper's well-mixed population on write.
	var buf2 bytes.Buffer
	if err := Write(&buf2, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != "wellmixed" {
		t.Fatalf("unset topology = %q, want wellmixed", got.Topology)
	}
}

// envelopeV2 mirrors the gob envelope exactly as it was written by the
// scenario-registry era (format version 2, no Topology field).
type envelopeV2 struct {
	Version     int
	Generation  int
	Seed        uint64
	MemorySteps int
	Game        string
	Payoff      [4]float64
	UpdateRule  string
	Label       string
	Strategies  [][]byte
}

// TestVersion2CheckpointRestoresWellMixed is the pre-topology compatibility
// regression test: a version-2 stream must load with its scenario identity
// intact and come back identified as a well-mixed run.
func TestVersion2CheckpointRestoresWellMixed(t *testing.T) {
	enc, err := strategy.Encode(strategy.WSLS(1))
	if err != nil {
		t.Fatal(err)
	}
	old := envelopeV2{
		Version:     2,
		Generation:  31337,
		Seed:        7,
		MemorySteps: 1,
		Game:        "snowdrift",
		Payoff:      [4]float64{3, 2, 4, 0},
		UpdateRule:  "moran",
		Label:       "pre-topology run",
		Strategies:  [][]byte{enc},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("version-2 checkpoint failed to restore: %v", err)
	}
	if got.Game != "snowdrift" || got.UpdateRule != "moran" || got.Payoff != old.Payoff {
		t.Fatalf("version-2 scenario identity lost: %+v", got)
	}
	if got.Topology != "wellmixed" {
		t.Fatalf("version-2 topology = %q, want wellmixed", got.Topology)
	}
}

// envelopeV1 mirrors the gob envelope exactly as it was written before the
// scenario registry existed (format version 1, no Game/Payoff/UpdateRule
// fields).  Gob matches fields by name, so encoding this struct reproduces
// the bytes an old checkpoint file holds.
type envelopeV1 struct {
	Version     int
	Generation  int
	Seed        uint64
	MemorySteps int
	Label       string
	Strategies  [][]byte
}

// TestVersion1CheckpointStillRestores is the pre-registry compatibility
// regression test: a version-1 stream must load and come back identified as
// an IPD + Fermi run with the standard payoff matrix.
func TestVersion1CheckpointStillRestores(t *testing.T) {
	strategies := []strategy.Strategy{strategy.WSLS(1), strategy.AllD(1)}
	old := envelopeV1{
		Version:     1,
		Generation:  777,
		Seed:        2013,
		MemorySteps: 1,
		Label:       "pre-registry run",
		Strategies:  make([][]byte, len(strategies)),
	}
	for i, s := range strategies {
		enc, err := strategy.Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		old.Strategies[i] = enc
	}
	var buf bytes.Buffer
	// The gob stream carries the encoder-side type name; name it like the
	// writer did so the bytes match a real v1 file.
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("version-1 checkpoint failed to restore: %v", err)
	}
	if got.Generation != 777 || got.Seed != 2013 || got.MemorySteps != 1 || got.Label != "pre-registry run" {
		t.Fatalf("version-1 metadata lost: %+v", got)
	}
	if got.Game != "ipd" || got.UpdateRule != "fermi" {
		t.Fatalf("version-1 scenario identity = %q/%q, want ipd/fermi", got.Game, got.UpdateRule)
	}
	if got.Topology != "wellmixed" {
		t.Fatalf("version-1 topology = %q, want wellmixed", got.Topology)
	}
	std := game.Standard()
	if got.Payoff != [4]float64{std.Reward, std.Sucker, std.Temptation, std.Punishment} {
		t.Fatalf("version-1 payoff = %v, want the standard PD matrix", got.Payoff)
	}
	for i := range strategies {
		if !got.Strategies[i].Equal(strategies[i]) {
			t.Fatalf("strategy %d did not survive the v1 restore", i)
		}
	}
	// Future versions must still be rejected.
	future := envelopeV1{Version: 99, Strategies: old.Strategies}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(future); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err == nil {
		t.Fatal("accepted a checkpoint from the future")
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, Snapshot{}); err == nil {
		t.Fatal("accepted an empty strategy table")
	}
	if err := Write(&buf, Snapshot{Strategies: []strategy.Strategy{nil}}); err == nil {
		t.Fatal("accepted a nil strategy")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("accepted garbage input")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("accepted empty input")
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	snap := sampleSnapshot()
	if err := Save(path, snap); err != nil {
		t.Fatal(err)
	}
	// The temporary file must not linger.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temporary file left behind")
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != snap.Generation || len(got.Strategies) != len(snap.Strategies) {
		t.Fatalf("loaded snapshot differs: %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "missing.ckpt")); err == nil {
		t.Fatal("accepted a missing file")
	}
}

func TestSaveOverwritesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	first := sampleSnapshot()
	if err := Save(path, first); err != nil {
		t.Fatal(err)
	}
	second := sampleSnapshot()
	second.Generation = 99999
	if err := Save(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 99999 {
		t.Fatalf("overwrite failed, generation = %d", got.Generation)
	}
}

// TestResumeStateRoundTrip covers the version-4 resume envelope: the named
// RNG streams, engine identity and cumulative event counters must survive
// the write/read cycle exactly.
func TestResumeStateRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	snap.Resume = true
	snap.Engine = EngineSerial
	snap.Streams = []Stream{
		{Name: StreamNature, State: [4]uint64{1, 2, 3, 4}},
		{Name: StreamGame, State: [4]uint64{5, 6, 7, 8}},
	}
	snap.PCEvents = 111
	snap.Adoptions = 42
	snap.Mutations = 7
	snap.GamesPlayed = 123456
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resume || got.Engine != EngineSerial {
		t.Fatalf("resume identity lost: Resume=%v Engine=%q", got.Resume, got.Engine)
	}
	if st, ok := got.Stream(StreamNature); !ok || st != [4]uint64{1, 2, 3, 4} {
		t.Fatalf("nature stream = %v, %v", st, ok)
	}
	if st, ok := got.Stream(StreamGame); !ok || st != [4]uint64{5, 6, 7, 8} {
		t.Fatalf("game stream = %v, %v", st, ok)
	}
	if got.PCEvents != 111 || got.Adoptions != 42 || got.Mutations != 7 || got.GamesPlayed != 123456 {
		t.Fatalf("counters lost: %+v", got)
	}
	if _, ok := got.Stream("nonexistent"); ok {
		t.Fatal("Stream returned a stream that was never recorded")
	}
}

// TestResumeWriteValidation holds Write to the resume-state invariants: a
// resume snapshot needs a known engine, the nature stream, and no all-zero
// (xoshiro-invalid) stream states.
func TestResumeWriteValidation(t *testing.T) {
	base := sampleSnapshot()
	base.Resume = true
	base.Engine = EngineSerial
	base.Streams = []Stream{{Name: StreamNature, State: [4]uint64{1, 2, 3, 4}}}

	var buf bytes.Buffer
	noEngine := base
	noEngine.Engine = "hybrid"
	if err := Write(&buf, noEngine); err == nil {
		t.Error("accepted an unknown engine")
	}
	noNature := base
	noNature.Streams = []Stream{{Name: StreamGame, State: [4]uint64{1, 2, 3, 4}}}
	if err := Write(&buf, noNature); err == nil {
		t.Error("accepted a resume snapshot without the nature stream")
	}
	zeroState := base
	zeroState.Streams = []Stream{{Name: StreamNature, State: [4]uint64{}}}
	if err := Write(&buf, zeroState); err == nil {
		t.Error("accepted an all-zero RNG stream state")
	}
}

// envelopeV3 mirrors the gob envelope exactly as the topology era wrote it
// (format version 3, no resume state).
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

// TestVersion3CheckpointLoadsAsFinalOnly extends the compatibility matrix
// to v3 streams read by the v4 reader: everything v3 recorded survives, and
// the snapshot comes back marked non-resumable with zero resume state.
func TestVersion3CheckpointLoadsAsFinalOnly(t *testing.T) {
	enc, err := strategy.Encode(strategy.WSLS(1))
	if err != nil {
		t.Fatal(err)
	}
	old := envelopeV3{
		Version:     3,
		Generation:  424242,
		Seed:        99,
		MemorySteps: 1,
		Game:        "staghunt",
		Payoff:      [4]float64{4, 0, 3, 2},
		UpdateRule:  "imitation",
		Topology:    "ring:6",
		Label:       "topology-era run",
		Strategies:  [][]byte{enc},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("version-3 checkpoint failed to restore: %v", err)
	}
	if got.Game != "staghunt" || got.UpdateRule != "imitation" || got.Topology != "ring:6" || got.Payoff != old.Payoff {
		t.Fatalf("version-3 identity lost: %+v", got)
	}
	if got.Resume || got.Engine != "" || got.Streams != nil {
		t.Fatalf("version-3 checkpoint gained resume state: Resume=%v Engine=%q Streams=%v", got.Resume, got.Engine, got.Streams)
	}
	if got.PCEvents != 0 || got.Adoptions != 0 || got.Mutations != 0 || got.GamesPlayed != 0 {
		t.Fatalf("version-3 checkpoint gained event counters: %+v", got)
	}
}

// TestLoadTruncatedAndCorrupt asserts that a torn or bit-rotted file fails
// with a clean error instead of decoding into a zero-value Snapshot.
func TestLoadTruncatedAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func() []byte{
		"truncated-half":  func() []byte { return raw[:len(raw)/2] },
		"truncated-tail":  func() []byte { return raw[:len(raw)-1] },
		"truncated-empty": func() []byte { return nil },
		"corrupt-strategy": func() []byte {
			// Flip the codec-version byte of an embedded strategy encoding.
			// (A flip inside the move table itself would decode fine — every
			// bit pattern is a valid pure strategy — so the codec header is
			// the detectable place.)
			enc, err := strategy.Encode(strategy.WSLS(2))
			if err != nil {
				t.Fatal(err)
			}
			idx := bytes.Index(raw, enc)
			if idx < 0 {
				t.Fatal("could not locate the embedded strategy encoding")
			}
			cp := append([]byte(nil), raw...)
			cp[idx] ^= 0xFF
			return cp
		},
	} {
		bad := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(bad, mutate(), 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := Load(bad)
		if err == nil {
			t.Errorf("%s: loaded without error (snapshot: %+v)", name, snap)
		}
	}
}

// TestSaveIsDurableAndCollisionFree exercises the Save rewrite: no
// fixed-suffix temp file is used (two runs sharing a path cannot clobber
// each other's in-flight writes), and nothing lingers after success.
func TestSaveIsDurableAndCollisionFree(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.ckpt")
	// A file squatting on the old fixed temp name must not be touched.
	squatter := path + ".tmp"
	if err := os.WriteFile(squatter, []byte("other run's in-flight write"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(squatter); err != nil || string(got) != "other run's in-flight write" {
		t.Fatalf("Save disturbed an unrelated file at the fixed temp suffix: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) && e.Name() != filepath.Base(squatter) {
			t.Errorf("Save left a stray file behind: %s", e.Name())
		}
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("checkpoint permissions: %v, %v", fi.Mode(), err)
	}
}

// TestReadRejectsKindTwoEntry reads an envelope whose table holds, behind
// a pure entry, a kind-2 entry: the codec's former mixed-strategy layout,
// here a memory-one strategy cooperating with probability 0.5 everywhere.
// Read must fail with an error that wraps strategy.ErrCorrupt and names
// the entry.
func TestReadRejectsKindTwoEntry(t *testing.T) {
	wsls, err := strategy.Encode(strategy.WSLS(1))
	if err != nil {
		t.Fatal(err)
	}
	kindTwo := []byte{1, 2, 1}
	for s := 0; s < 4; s++ {
		kindTwo = append(kindTwo, 0, 0, 0, 0, 0, 0, 0xe0, 0x3f)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(envelope{
		Version: formatVersion, Generation: 1, MemorySteps: 1,
		Game: defaultGame, Payoff: standardPayoff(), UpdateRule: defaultRule, Topology: defaultTopology,
		Strategies: [][]byte{wsls, kindTwo},
	}); err != nil {
		t.Fatal(err)
	}
	_, err = Read(&buf)
	if !errors.Is(err, strategy.ErrCorrupt) {
		t.Fatalf("Read of a kind-2 entry returned %v, want an error wrapping strategy.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "strategy 1") {
		t.Fatalf("error %q does not name entry 1", err)
	}
}

func TestRemoveStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	// Simulate an injected crash striking between Save's temp-file write
	// and its rename: stranded partial envelopes next to the checkpoint.
	stale1 := path + ".tmp-123456"
	stale2 := path + ".tmp-crashed"
	for _, p := range []string{stale1, stale2} {
		if err := os.WriteFile(p, []byte("partial envelope"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// An unrelated sibling file must survive the sweep.
	other := filepath.Join(dir, "other.ckpt.tmp-1")
	if err := os.WriteFile(other, []byte("not ours"), 0o644); err != nil {
		t.Fatal(err)
	}
	removed, err := RemoveStaleTemps(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the 2 stale temporaries", removed)
	}
	for _, p := range []string{stale1, stale2} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temporary %s still present", p)
		}
	}
	if _, err := os.Stat(other); err != nil {
		t.Errorf("unrelated file was removed: %v", err)
	}
	// The checkpoint itself is untouched and still loads.
	if _, err := Load(path); err != nil {
		t.Errorf("checkpoint no longer loads after sweep: %v", err)
	}
	// A second sweep (and a sweep against a path with no checkpoint at
	// all) is a clean no-op.
	if removed, err := RemoveStaleTemps(path); err != nil || len(removed) != 0 {
		t.Errorf("second sweep = (%v, %v), want empty", removed, err)
	}
	if removed, err := RemoveStaleTemps(filepath.Join(dir, "absent.ckpt")); err != nil || len(removed) != 0 {
		t.Errorf("sweep of absent checkpoint = (%v, %v), want empty", removed, err)
	}
}
