// Package kmeans implements Lloyd's k-means clustering over binary vectors.
//
// The paper's Figure 2 visualises the final population by clustering the
// strategy bit-vectors with Lloyd k-means so that prevalent strategies stand
// out.  This package provides that clustering: points are strategy move
// tables (0 = cooperate, 1 = defect per state), centroids live in [0,1]^d,
// and assignment uses squared Euclidean distance, which for binary data
// orders identically to Hamming distance.
package kmeans

import (
	"errors"
	"fmt"
	"math"

	"evogame/internal/rng"
)

// Result holds the outcome of one clustering run.
type Result struct {
	// Assignments maps each point index to its cluster index in [0, K).
	Assignments []int
	// Centroids are the final cluster centres.
	Centroids [][]float64
	// Sizes is the number of points in each cluster.
	Sizes []int
	// Inertia is the total within-cluster sum of squared distances.
	Inertia float64
	// Iterations is the number of Lloyd iterations executed.
	Iterations int
	// Converged reports whether assignments stopped changing before the
	// iteration cap.
	Converged bool
}

// Config controls the clustering.
type Config struct {
	// K is the number of clusters.
	K int
	// MaxIterations caps the number of Lloyd iterations (default 100).
	MaxIterations int
	// Seed drives the initial centroid selection and empty-cluster
	// reseeding.
	Seed uint64
}

// Cluster runs Lloyd k-means on the points (all of equal dimension).
func Cluster(points [][]float64, cfg Config) (Result, error) {
	if len(points) == 0 {
		return Result{}, errors.New("kmeans: no points")
	}
	dim := len(points[0])
	if dim == 0 {
		return Result{}, errors.New("kmeans: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != dim {
			return Result{}, fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	if cfg.K <= 0 {
		return Result{}, fmt.Errorf("kmeans: K must be positive, got %d", cfg.K)
	}
	if cfg.K > len(points) {
		return Result{}, fmt.Errorf("kmeans: K=%d exceeds the number of points (%d)", cfg.K, len(points))
	}
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 100
	}
	src := rng.New(cfg.Seed)

	// k-means++ style seeding: the first centroid is a random point, each
	// subsequent centroid is chosen with probability proportional to its
	// squared distance from the nearest existing centroid.
	centroids := make([][]float64, 0, cfg.K)
	first := points[src.Intn(len(points))]
	centroids = append(centroids, append([]float64(nil), first...))
	dist2 := make([]float64, len(points))
	for len(centroids) < cfg.K {
		total := 0.0
		for i, p := range points {
			d := math.MaxFloat64
			for _, c := range centroids {
				if v := sqDist(p, c); v < d {
					d = v
				}
			}
			dist2[i] = d
			total += d
		}
		var idx int
		if total == 0 {
			idx = src.Intn(len(points))
		} else {
			target := src.Float64() * total
			acc := 0.0
			idx = len(points) - 1
			for i, d := range dist2 {
				acc += d
				if acc >= target {
					idx = i
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), points[idx]...))
	}

	assignments := make([]int, len(points))
	for i := range assignments {
		assignments[i] = -1
	}
	sizes := make([]int, cfg.K)
	res := Result{}

	for iter := 0; iter < maxIter; iter++ {
		res.Iterations = iter + 1
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		inertia := 0.0
		for i, p := range points {
			best, bestDist := 0, math.MaxFloat64
			for k, c := range centroids {
				if d := sqDist(p, c); d < bestDist {
					best, bestDist = k, d
				}
			}
			if assignments[i] != best {
				assignments[i] = best
				changed = true
			}
			sizes[best]++
			inertia += bestDist
		}
		res.Inertia = inertia

		// Recompute centroids; reseed any empty cluster with the point
		// farthest from its centroid so no cluster stays empty.
		sums := make([][]float64, cfg.K)
		for k := range sums {
			sums[k] = make([]float64, dim)
		}
		for i, p := range points {
			c := sums[assignments[i]]
			for d, v := range p {
				c[d] += v
			}
		}
		for k := range centroids {
			if sizes[k] == 0 {
				// Reseed with the point farthest from its centroid, chosen
				// only from clusters that can spare a member so no donor
				// cluster is emptied in turn (pigeonhole guarantees such a
				// point exists whenever K <= len(points)).
				far, farDist := -1, -1.0
				for i, p := range points {
					if sizes[assignments[i]] < 2 {
						continue
					}
					if d := sqDist(p, centroids[assignments[i]]); d > farDist {
						far, farDist = i, d
					}
				}
				if far < 0 {
					continue
				}
				copy(centroids[k], points[far])
				sizes[assignments[far]]--
				assignments[far] = k
				sizes[k] = 1
				changed = true
				continue
			}
			for d := range centroids[k] {
				centroids[k][d] = sums[k][d] / float64(sizes[k])
			}
		}
		if !changed {
			res.Converged = true
			break
		}
	}

	res.Assignments = assignments
	res.Centroids = centroids
	res.Sizes = sizes
	return res, nil
}

func sqDist(a, b []float64) float64 {
	total := 0.0
	for i := range a {
		d := a[i] - b[i]
		total += d * d
	}
	return total
}

// BinaryPoints converts strategy move tables (one bool per state, true =
// defect) into the float vectors Cluster consumes.
func BinaryPoints(rows [][]bool) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		v := make([]float64, len(row))
		for j, b := range row {
			if b {
				v[j] = 1
			}
		}
		out[i] = v
	}
	return out
}
