package game

import (
	"math"
	"strings"
	"testing"
)

func TestBuiltinSpecsValidateOwnPayoff(t *testing.T) {
	for _, name := range SpecNames() {
		s, err := LookupSpec(name)
		if err != nil {
			t.Fatalf("LookupSpec(%q): %v", name, err)
		}
		if err := s.Validate(s.Payoff); err != nil {
			t.Errorf("spec %q rejects its own canonical payoff: %v", name, err)
		}
	}
}

func TestSpecRegistryNames(t *testing.T) {
	names := SpecNames()
	for _, want := range []string{"ipd", "snowdrift", "staghunt", "generic"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("SpecNames() = %v, missing %q", names, want)
		}
	}
	if _, err := LookupSpec("calvinball"); err == nil {
		t.Error("LookupSpec accepted an unknown game")
	}
}

func TestSpecValidateNamesViolatedConstraint(t *testing.T) {
	// Snowdrift requires S > P; hand it a PD matrix (P > S) and the error
	// must name the broken inequality and carry the offending values.
	err := Snowdrift().Validate(Standard())
	if err == nil {
		t.Fatal("Snowdrift().Validate accepted a PD matrix")
	}
	for _, want := range []string{"S > P", "S=0", "P=1", "snowdrift"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	// The PD validation likewise names the first violated inequality.
	err = Matrix{Reward: 3, Sucker: 0, Temptation: 2, Punishment: 1}.Validate()
	if err == nil || !strings.Contains(err.Error(), "T > R") {
		t.Errorf("Matrix.Validate() = %v, want a T > R violation", err)
	}
}

func TestSpecWithPayoff(t *testing.T) {
	custom := Matrix{Reward: 5, Sucker: 1, Temptation: 6, Punishment: 2}
	s, err := IPD().WithPayoff(custom)
	if err != nil {
		t.Fatalf("WithPayoff(valid PD matrix): %v", err)
	}
	if s.Payoff != custom {
		t.Fatalf("WithPayoff kept payoff %+v", s.Payoff)
	}
	if _, err := StagHunt().WithPayoff(Standard()); err == nil {
		t.Fatal("StagHunt().WithPayoff accepted a PD matrix (T > R)")
	}
	if _, err := Generic().WithPayoff(Matrix{Reward: -1, Sucker: -2, Temptation: -3, Punishment: -4}); err != nil {
		t.Fatalf("Generic().WithPayoff rejected an arbitrary matrix: %v", err)
	}
	// Non-finite payoffs are rejected by every spec, the constraint-free
	// generic one included: they would silently poison the dynamics.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Generic().WithPayoff(Matrix{Reward: bad, Sucker: 0, Temptation: 1, Punishment: 2}); err == nil {
			t.Errorf("Generic().WithPayoff accepted a %v payoff", bad)
		}
	}
}

func TestSpecIDDistinguishesGames(t *testing.T) {
	seen := map[string]string{}
	for _, name := range SpecNames() {
		s, _ := LookupSpec(name)
		id := s.ID()
		if prev, ok := seen[id]; ok {
			t.Errorf("specs %q and %q share ID %q", prev, name, id)
		}
		seen[id] = name
	}
	a, _ := IPD().WithPayoff(Matrix{Reward: 5, Sucker: 1, Temptation: 6, Punishment: 2})
	if a.ID() == IPD().ID() {
		t.Error("same spec with different payoff must have a different ID")
	}
}

func TestMatrixIntegerValued(t *testing.T) {
	if !Standard().IntegerValued() {
		t.Error("Standard() should be integer-valued")
	}
	m := Matrix{Reward: 1.25, Sucker: 0.5, Temptation: 2, Punishment: 0}
	if m.IntegerValued() {
		t.Errorf("%+v should not be integer-valued", m)
	}
}

func TestEngineCarriesSpec(t *testing.T) {
	e, err := NewEngine(EngineConfig{Game: Snowdrift(), Rounds: 10, MemorySteps: 1})
	if err != nil {
		t.Fatalf("NewEngine(snowdrift): %v", err)
	}
	if e.GameID() != Snowdrift().ID()+"|rounds=10" || e.Payoff() != Snowdrift().Payoff {
		t.Fatalf("engine game = %q payoff %+v", e.GameID(), e.Payoff())
	}
	if e2, _ := NewEngine(EngineConfig{Rounds: 10, MemorySteps: 1}); e2.GameID() != IPD().ID()+"|rounds=10" {
		t.Fatalf("zero-value EngineConfig.Game = %q, want ipd", e2.GameID())
	}
	// A payoff override must satisfy the spec's constraints.
	if _, err := NewEngine(EngineConfig{Game: StagHunt(), Payoff: Standard(), Rounds: 10, MemorySteps: 1}); err == nil {
		t.Fatal("NewEngine accepted a PD payoff for the stag hunt spec")
	}
	custom := Matrix{Reward: 6, Sucker: 0, Temptation: 5, Punishment: 1}
	e3, err := NewEngine(EngineConfig{Game: StagHunt(), Payoff: custom, Rounds: 10, MemorySteps: 1})
	if err != nil {
		t.Fatalf("NewEngine(staghunt, custom): %v", err)
	}
	if want, _ := StagHunt().WithPayoff(custom); e3.GameID() != want.ID()+"|rounds=10" {
		t.Fatalf("engine game %q, want the override %+v", e3.GameID(), custom)
	}
	if e3.GameID() == e.GameID() {
		t.Error("different games must have different GameIDs")
	}
}
