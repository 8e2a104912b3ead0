package dynamics

import (
	"math"
	"testing"

	"evogame/internal/rng"
)

func TestRegistryNames(t *testing.T) {
	names := Names()
	for _, want := range []string{"fermi", "imitation", "moran"} {
		r, err := Lookup(want)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", want, err)
		}
		if r.Name() != want {
			t.Errorf("Lookup(%q).Name() = %q", want, r.Name())
		}
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Names() = %v, missing %q", names, want)
		}
	}
	if _, err := Lookup("replicator"); err == nil {
		t.Error("Lookup accepted an unknown rule")
	}
}

func TestFermiProb(t *testing.T) {
	if p := FermiProb(0, 5, 1); p != 0.5 {
		t.Errorf("FermiProb(beta=0) = %v, want 0.5", p)
	}
	if p := FermiProb(1, 1000, 0); p < 0.999 {
		t.Errorf("FermiProb(strong teacher) = %v, want ~1", p)
	}
	if p := FermiProb(1, 0, 1000); p > 0.001 {
		t.Errorf("FermiProb(strong learner) = %v, want ~0", p)
	}
	want := 1 / (1 + math.Exp(-0.5*2))
	if p := FermiProb(0.5, 3, 1); math.Abs(p-want) > 1e-15 {
		t.Errorf("FermiProb(0.5, 3, 1) = %v, want %v", p, want)
	}
}

// TestFermiRuleMatchesLegacyStream verifies the bit-identity contract: the
// fermi rule draws exactly one Bool(prob) from the source with the same
// probability the pre-registry Nature Agent used, so the downstream random
// stream is unchanged.
func TestFermiRuleMatchesLegacyStream(t *testing.T) {
	ruleSrc := rng.New(42)
	legacySrc := rng.New(42)
	rule := Fermi()
	for i := 0; i < 200; i++ {
		fitT, fitL := float64(i%13), float64(i%7)
		prob := FermiProb(1, fitT, fitL)
		wantAdopt := legacySrc.Bool(prob)
		gotAdopt, gotProb := rule.Adopt(ruleSrc, 1, fitT, fitL)
		if gotAdopt != wantAdopt || gotProb != prob {
			t.Fatalf("step %d: fermi rule (adopt=%v prob=%v) diverges from legacy (adopt=%v prob=%v)",
				i, gotAdopt, gotProb, wantAdopt, prob)
		}
	}
	// The two sources must remain in lockstep afterwards.
	if ruleSrc.Intn(1<<30) != legacySrc.Intn(1<<30) {
		t.Fatal("fermi rule consumed a different amount of randomness than the legacy path")
	}
}

func TestImitationDeterministic(t *testing.T) {
	rule := Imitation()
	if adopted, prob := rule.Adopt(nil, 1, 2, 1); !adopted || prob != 1 {
		t.Errorf("imitation(teacher better) = %v, %v; want true, 1", adopted, prob)
	}
	if adopted, prob := rule.Adopt(nil, 1, 1, 1); adopted || prob != 0 {
		t.Errorf("imitation(tie) = %v, %v; want false, 0", adopted, prob)
	}
	if adopted, _ := rule.Adopt(nil, 1, 0, 5); adopted {
		t.Error("imitation adopted from a worse teacher")
	}
}

func TestMoranProportional(t *testing.T) {
	src := rng.New(7)
	rule := Moran()
	// Empirical adoption frequency ~ fitT/(fitT+fitL) = 0.75.
	adoptions := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		adopted, prob := rule.Adopt(src, 1, 3, 1)
		if prob != 0.75 {
			t.Fatalf("moran prob = %v, want 0.75", prob)
		}
		if adopted {
			adoptions++
		}
	}
	freq := float64(adoptions) / trials
	if math.Abs(freq-0.75) > 0.02 {
		t.Errorf("moran adoption frequency %v, want ~0.75", freq)
	}
	// Degenerate and negative fitness cases.
	if _, prob := rule.Adopt(src, 1, 0, 0); prob != 0.5 {
		t.Errorf("moran(0,0) prob = %v, want drift 0.5", prob)
	}
	if _, prob := rule.Adopt(src, 1, -3, -1); prob != 0.5 {
		t.Errorf("moran(all negative) prob = %v, want drift 0.5", prob)
	}
	if _, prob := rule.Adopt(src, 1, 2, -1); prob != 1 {
		t.Errorf("moran(negative learner) prob = %v, want 1", prob)
	}
}
