package topology

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// buildAll returns one built graph per registered family at the given size,
// using parameters that exercise the non-default paths.
func buildAll(t *testing.T, n int, seed uint64) map[string]Graph {
	t.Helper()
	out := make(map[string]Graph)
	for _, sel := range []string{"wellmixed", "ring:4", "torus:vonneumann", "torus:moore", "smallworld:4:0.3"} {
		spec, err := Parse(sel)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sel, err)
		}
		g, err := spec.Build(n, seed)
		if err != nil {
			t.Fatalf("Build(%q, n=%d): %v", sel, n, err)
		}
		out[sel] = g
	}
	return out
}

func TestGraphInvariants(t *testing.T) {
	for _, n := range []int{8, 32, 100, 127} {
		for sel, g := range buildAll(t, n, 2013) {
			if g.Len() != n {
				t.Fatalf("%s: Len() = %d, want %d", sel, g.Len(), n)
			}
			for i := 0; i < n; i++ {
				deg := g.Degree(i)
				if deg < 1 {
					t.Fatalf("%s n=%d: SSet %d has degree %d", sel, n, i, deg)
				}
				prev := -1
				for k := 0; k < deg; k++ {
					j := g.Neighbor(i, k)
					if j <= prev {
						t.Fatalf("%s n=%d: neighbors of %d not strictly ascending", sel, n, i)
					}
					prev = j
					if j == i {
						t.Fatalf("%s n=%d: self-loop at %d", sel, n, i)
					}
					if j < 0 || j >= n {
						t.Fatalf("%s n=%d: neighbor %d of %d out of range", sel, n, j, i)
					}
					if !g.Adjacent(i, j) || !g.Adjacent(j, i) {
						t.Fatalf("%s n=%d: edge (%d,%d) not symmetric under Adjacent", sel, n, i, j)
					}
				}
			}
		}
	}
}

// TestDeterministicPerSeed is the reproducibility contract: the same
// (spec, n, seed) triple must always yield the identical graph — that is
// what lets every rank of the distributed engine rebuild it independently.
func TestDeterministicPerSeed(t *testing.T) {
	for sel, g1 := range buildAll(t, 64, 42) {
		g2 := buildAll(t, 64, 42)[sel]
		for i := 0; i < 64; i++ {
			if !reflect.DeepEqual(Neighbors(g1, i), Neighbors(g2, i)) {
				t.Fatalf("%s: neighbors of %d differ between two builds with the same seed", sel, i)
			}
		}
	}
	// Different seeds must change the randomized family (small-world) and
	// must not change the deterministic lattices.
	a, err := must(Parse("smallworld:4:0.5")).Build(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := must(Parse("smallworld:4:0.5")).Build(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 128 && same; i++ {
		same = reflect.DeepEqual(Neighbors(a, i), Neighbors(b, i))
	}
	if same {
		t.Error("smallworld: two different seeds produced the identical graph")
	}
	r1, _ := must(Parse("ring:4")).Build(64, 1)
	r2, _ := must(Parse("ring:4")).Build(64, 99)
	for i := 0; i < 64; i++ {
		if !reflect.DeepEqual(Neighbors(r1, i), Neighbors(r2, i)) {
			t.Fatalf("ring: seed changed a deterministic lattice at %d", i)
		}
	}
}

func must(s Spec, err error) Spec {
	if err != nil {
		panic(err)
	}
	return s
}

func TestCompleteGraph(t *testing.T) {
	g, err := Spec{}.Build(10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Complete() || g.Name() != "wellmixed" {
		t.Fatalf("zero spec built %q complete=%v, want the well-mixed graph", g.Name(), g.Complete())
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 9 {
			t.Fatalf("complete: degree of %d = %d, want 9", i, g.Degree(i))
		}
		want := make([]int, 0, 9)
		for j := 0; j < 10; j++ {
			if j != i {
				want = append(want, j)
			}
		}
		if got := Neighbors(g, i); !reflect.DeepEqual(got, want) {
			t.Fatalf("complete: neighbors of %d = %v, want %v", i, got, want)
		}
	}
	if g.Adjacent(3, 3) {
		t.Error("complete: Adjacent(3,3) = true")
	}
}

func TestRingStructure(t *testing.T) {
	g, err := must(Parse("ring:4")).Build(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := Neighbors(g, 0); !reflect.DeepEqual(got, []int{1, 2, 8, 9}) {
		t.Fatalf("ring:4 neighbors of 0 = %v, want [1 2 8 9]", got)
	}
	for i := 0; i < g.Len(); i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("ring:4 SSet %d has degree %d, want 4", i, g.Degree(i))
		}
	}
}

func TestTorusStructure(t *testing.T) {
	// 12 = 3x4 torus.
	g, err := must(Parse("torus")).Build(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cell 0 = (row 0, col 0): up (2,0)=8, down (1,0)=4, left (0,3)=3, right (0,1)=1.
	if got := Neighbors(g, 0); !reflect.DeepEqual(got, []int{1, 3, 4, 8}) {
		t.Fatalf("torus vonneumann neighbors of 0 = %v, want [1 3 4 8]", got)
	}
	m, err := must(Parse("torus:moore")).Build(12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Degree(0) != 8 {
		t.Fatalf("torus moore degree = %d, want 8", m.Degree(0))
	}
	// A prime size degenerates to a 1xN torus and must still be a valid graph.
	p, err := must(Parse("torus")).Build(13, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if p.Degree(i) != 2 {
			t.Fatalf("1x13 torus degree of %d = %d, want 2 (ring)", i, p.Degree(i))
		}
	}
}

func TestSmallWorldKeepsDegreeFloor(t *testing.T) {
	g, err := must(Parse("smallworld:6:1")).Build(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	minDeg, total := 200, 0
	for i := 0; i < 200; i++ {
		d := g.Degree(i)
		total += d
		if d < minDeg {
			minDeg = d
		}
	}
	// Every node originates degree/2 edges that rewiring never detaches
	// from it, so the minimum degree is at least 3 even at p=1.
	if minDeg < 3 {
		t.Fatalf("smallworld p=1: minimum degree %d < 3", minDeg)
	}
	if total != 200*6 {
		t.Fatalf("smallworld rewiring changed the edge count: total degree %d, want %d", total, 200*6)
	}
}

func TestParseAndCanonicalString(t *testing.T) {
	for sel, want := range map[string]string{
		"":                 "wellmixed",
		"wellmixed":        "wellmixed",
		"ring":             "ring:4",
		"ring:8":           "ring:8",
		"torus":            "torus:vonneumann",
		"torus:moore":      "torus:moore",
		"smallworld":       "smallworld:4:0.1",
		"smallworld:6:0.2": "smallworld:6:0.2",
	} {
		spec, err := Parse(sel)
		if err != nil {
			t.Fatalf("Parse(%q): %v", sel, err)
		}
		if spec.String() != want {
			t.Errorf("Parse(%q).String() = %q, want %q", sel, spec.String(), want)
		}
		// The canonical rendering must round-trip (it is the checkpoint identity).
		again, err := Parse(spec.String())
		if err != nil || again.String() != want {
			t.Errorf("canonical %q did not round-trip: %q, %v", want, again.String(), err)
		}
	}
	// Every parameter here is invalid whatever the population size, so
	// Parse itself must reject it; only the degree's bound by the SSet
	// count waits for Build.
	for _, bad := range []string{
		"hypercube", "ring:3", "ring:0", "ring:-3", "ring:x", "torus:hex", "smallworld:4:2",
		"smallworld:4:-0.1", "smallworld:4:NaN", "smallworld:5",
		"wellmixed:2", "ring:4:4", "smallworld:4:0.1:9",
	} {
		if spec, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid selection as %q", bad, spec.String())
		}
	}
	if got := Names(); len(got) < 4 {
		t.Fatalf("Names() = %v, want at least the 4 built-ins", got)
	}
	if _, err := Lookup("wellmixed"); err != nil {
		t.Fatal(err)
	}
	if Syntax("ring") == "" || Syntax("smallworld") == "" {
		t.Error("Syntax returned an empty help string")
	}
}

// TestBuildRejectsHandMadeInvalidSpecs: a Spec assembled by hand skips
// Parse, so Build repeats its size-free checks; a NaN rewire probability
// once slipped through and built a plain ring.
func TestBuildRejectsHandMadeInvalidSpecs(t *testing.T) {
	for _, spec := range []Spec{
		{Name: "smallworld", Degree: 4, Rewire: math.NaN()},
		{Name: "smallworld", Degree: 4, Rewire: -0.1},
		{Name: "ring", Degree: 3},
	} {
		if _, err := spec.Build(16, 1); err == nil {
			t.Errorf("Build accepted the hand-made spec %+v", spec)
		}
	}
}

func TestDegreeTooLargeRejected(t *testing.T) {
	if _, err := must(Parse("ring:8")).Build(6, 0); err == nil {
		t.Error("ring:8 over 6 SSets accepted (max degree is n-1)")
	}
	if _, err := (Spec{}).Build(1, 0); err == nil {
		t.Error("Build accepted n=1")
	}
}

func ExampleParse() {
	spec, _ := Parse("ring:6")
	g, _ := spec.Build(12, 2013)
	fmt.Println(g.Name(), g.Degree(0), Neighbors(g, 0))
	// Output: ring:6 6 [1 2 3 9 10 11]
}
