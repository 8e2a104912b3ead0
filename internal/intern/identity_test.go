package intern

import (
	"fmt"
	"math"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// encodingRegistry is the reference for Registry's identity: IDs issued
// in first-seen order and keyed by the bytes strategy.Encode writes.
type encodingRegistry map[string]uint32

func (r encodingRegistry) intern(t *testing.T, s strategy.Strategy) uint32 {
	t.Helper()
	buf, err := strategy.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := r[string(buf)]
	if !ok {
		id = uint32(len(r))
		r[string(buf)] = id
	}
	return id
}

// mixedOf builds a memory-one mixed strategy from four probabilities.
func mixedOf(t *testing.T, probs ...float64) strategy.Strategy {
	t.Helper()
	m, err := strategy.MixedFromProbs(1, probs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRegistryMatchesEncodingKeyedReference interns seeded sequences of
// pure strategies (memory 1, 2 and 6, so memory one repeats often) and
// mixed ones, with re-interned clones, +0 and -0 probabilities and NaN
// payloads, and requires every ID to equal the encoding-keyed reference's
// and to resolve to a strategy encoding like the one interned.
func TestRegistryMatchesEncodingKeyedReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0x7FF8000000000002)
	fixed := []strategy.Strategy{
		mixedOf(t, 0, 0.5, 0.5, 0.5),
		mixedOf(t, negZero, 0.5, 0.5, 0.5), // Mixed.Equal calls these two equal
		mixedOf(t, nan1, 1, 0, 1),
		mixedOf(t, nan2, 1, 0, 1),
		mixedOf(t, 1, 0, 1, 0),
		strategy.TFT(1), // pure twin of the mixed strategy above
		strategy.AllD(6),
	}
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src := rng.New(seed)
			r, ref := NewRegistry(), encodingRegistry{}
			var seen []strategy.Strategy
			for step := 0; step < 600; step++ {
				var s strategy.Strategy
				switch k := src.Intn(10); {
				case k < 3 && len(seen) > 0:
					s = seen[src.Intn(len(seen))].Clone()
				case k < 5:
					s = strategy.RandomPure(1, src)
				case k < 7:
					s = strategy.RandomPure(2, src)
				case k < 8:
					s = strategy.RandomPure(6, src)
				case k < 9:
					s = fixed[src.Intn(len(fixed))]
				default:
					s = strategy.RandomMixed(1+src.Intn(2), src)
				}
				seen = append(seen, s)
				got, err := r.Intern(s)
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.intern(t, s); got != want {
					t.Fatalf("step %d: %v interned as %d, the encoding-keyed reference %d", step, s, got, want)
				}
				canon, err := r.Strategy(got)
				if err != nil {
					t.Fatal(err)
				}
				if !strategy.SameEncoding(canon, s) {
					t.Fatalf("step %d: ID %d resolves to %v, interned %v", step, got, canon, s)
				}
			}
			if r.Len() != len(ref) {
				t.Fatalf("registry holds %d strategies, the reference %d", r.Len(), len(ref))
			}
		})
	}
}

// TestRegistryHashCollision forces strategies under one encoding hash by
// pointing their hashes at another strategy's ID: each must still get its
// own ID and resolve to itself.
func TestRegistryHashCollision(t *testing.T) {
	r := NewRegistry()
	a, b, c := strategy.TFT(2), strategy.WSLS(2), strategy.AllD(2)
	hash := func(s strategy.Strategy) uint64 {
		h, err := strategy.EncodingHash(s)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	intern := func(s strategy.Strategy) uint32 {
		id, err := r.Intern(s)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ida := intern(a)
	r.byHash[hash(b)] = ida // b's hash now leads to a
	idb := intern(b)
	r.byHash[hash(c)] = ida // c's hash leads to a, then to b
	r.collided = map[uint64][]uint32{hash(b): {idb}, hash(c): {idb}}
	idc := intern(c)
	if ida == idb || idb == idc || ida == idc {
		t.Fatalf("colliding strategies share IDs: %d, %d, %d", ida, idb, idc)
	}
	for _, tc := range []struct {
		s  strategy.Strategy
		id uint32
	}{{a, ida}, {b, idb}, {c, idc}, {a.Clone(), ida}, {b.Clone(), idb}, {c.Clone(), idc}} {
		if got := intern(tc.s); got != tc.id {
			t.Fatalf("%v re-interned as %d, want %d", tc.s, got, tc.id)
		}
		if s, err := r.Strategy(tc.id); err != nil || !s.Equal(tc.s) {
			t.Fatalf("ID %d resolves to %v (%v), want %v", tc.id, s, err, tc.s)
		}
	}
	if r.Len() != 3 {
		t.Fatalf("registry holds %d strategies, want 3", r.Len())
	}
}
