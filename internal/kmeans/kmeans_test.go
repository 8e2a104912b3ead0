package kmeans

import (
	"testing"
	"testing/quick"

	"evogame/internal/rng"
)

func TestClusterValidation(t *testing.T) {
	if _, err := Cluster(nil, Config{K: 2}); err == nil {
		t.Fatal("accepted no points")
	}
	if _, err := Cluster([][]float64{{}}, Config{K: 1}); err == nil {
		t.Fatal("accepted zero-dimensional points")
	}
	if _, err := Cluster([][]float64{{1, 0}, {0}}, Config{K: 1}); err == nil {
		t.Fatal("accepted ragged points")
	}
	if _, err := Cluster([][]float64{{1}, {0}}, Config{K: 0}); err == nil {
		t.Fatal("accepted K=0")
	}
	if _, err := Cluster([][]float64{{1}, {0}}, Config{K: 5}); err == nil {
		t.Fatal("accepted K greater than the number of points")
	}
}

func TestTwoWellSeparatedClusters(t *testing.T) {
	// 20 copies of the WSLS pattern and 10 copies of ALLD: k=2 must separate
	// them perfectly.
	var points [][]float64
	for i := 0; i < 20; i++ {
		points = append(points, []float64{0, 1, 1, 0})
	}
	for i := 0; i < 10; i++ {
		points = append(points, []float64{1, 1, 1, 1})
	}
	res, err := Cluster(points, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge on trivially separable data")
	}
	first := res.Assignments[0]
	for i := 0; i < 20; i++ {
		if res.Assignments[i] != first {
			t.Fatalf("WSLS point %d assigned to a different cluster", i)
		}
	}
	second := res.Assignments[20]
	if second == first {
		t.Fatal("the two groups were merged")
	}
	for i := 20; i < 30; i++ {
		if res.Assignments[i] != second {
			t.Fatalf("ALLD point %d assigned to a different cluster", i)
		}
	}
	if res.Inertia != 0 {
		t.Fatalf("perfectly separable data should have zero inertia, got %v", res.Inertia)
	}
	if res.Sizes[first] != 20 || res.Sizes[second] != 10 {
		t.Fatalf("cluster sizes = %v, want 20 in cluster %d and 10 in cluster %d", res.Sizes, first, second)
	}
}

func TestSingleCluster(t *testing.T) {
	points := [][]float64{{1, 0}, {1, 0}, {0.9, 0.1}}
	res, err := Cluster(points, Config{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assignments {
		if a != 0 {
			t.Fatal("K=1 must assign everything to cluster 0")
		}
	}
	if res.Sizes[0] != 3 {
		t.Fatalf("cluster size = %d", res.Sizes[0])
	}
}

func TestNoEmptyClusters(t *testing.T) {
	// Fewer distinct points than clusters would naively leave empty
	// clusters; the reseeding policy must prevent that.
	src := rng.New(7)
	var points [][]float64
	for i := 0; i < 40; i++ {
		p := make([]float64, 8)
		for j := range p {
			p[j] = float64(src.Intn(2))
		}
		points = append(points, p)
	}
	res, err := Cluster(points, Config{K: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for k, s := range res.Sizes {
		if s == 0 {
			t.Fatalf("cluster %d is empty", k)
		}
		total += s
	}
	if total != len(points) {
		t.Fatalf("cluster sizes sum to %d, want %d", total, len(points))
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	src := rng.New(9)
	var points [][]float64
	for i := 0; i < 50; i++ {
		p := make([]float64, 4)
		for j := range p {
			p[j] = float64(src.Intn(2))
		}
		points = append(points, p)
	}
	a, err := Cluster(points, Config{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(points, Config{K: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("assignments differ at point %d for identical seeds", i)
		}
	}
	if a.Inertia != b.Inertia {
		t.Fatal("inertia differs for identical seeds")
	}
}

func TestBinaryPoints(t *testing.T) {
	rows := [][]bool{{true, false}, {false, true}}
	pts := BinaryPoints(rows)
	if pts[0][0] != 1 || pts[0][1] != 0 || pts[1][0] != 0 || pts[1][1] != 1 {
		t.Fatalf("BinaryPoints = %v", pts)
	}
	if len(BinaryPoints(nil)) != 0 {
		t.Fatal("nil rows should give no points")
	}
}

// Property: every point is assigned to a cluster in range, sizes sum to the
// number of points, and the centroid entries of binary data stay in [0,1].
func TestQuickClusterInvariants(t *testing.T) {
	f := func(seed uint64, nSel, kSel, dimSel uint8) bool {
		n := int(nSel%60) + 2
		k := int(kSel)%n + 1
		dim := int(dimSel%16) + 1
		src := rng.New(seed)
		points := make([][]float64, n)
		for i := range points {
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(src.Intn(2))
			}
			points[i] = p
		}
		res, err := Cluster(points, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			total += s
		}
		if total != n {
			return false
		}
		for _, a := range res.Assignments {
			if a < 0 || a >= k {
				return false
			}
		}
		for _, c := range res.Centroids {
			for _, v := range c {
				if v < -1e-9 || v > 1+1e-9 {
					return false
				}
			}
		}
		return res.Inertia >= 0
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCluster4096x16(b *testing.B) {
	src := rng.New(1)
	points := make([][]float64, 4096)
	for i := range points {
		p := make([]float64, 16)
		for j := range p {
			p[j] = float64(src.Intn(2))
		}
		points[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(points, Config{K: 8, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
