// Package topology provides the structured-population layer of the
// evolutionary dynamics: a registry of interaction graphs that restrict
// which Strategy Sets meet in game play and learning.
//
// The paper's model is well-mixed — every SSet plays every other SSet, and
// the Nature Agent draws comparison partners uniformly from the whole
// population.  That is the O(S²) wall the shared fitness subsystem
// (internal/fitness) attacks by caching; this package removes the wall by
// construction: an SSet's fitness is its summed payoff against its graph
// neighbors only, so a sparse topology makes every full evaluation O(S·k)
// games for degree k, and the Nature Agent draws the learner of a
// pairwise-comparison event from the teacher's neighborhood.  Structured
// populations also open a new family of dynamics — network reciprocity,
// where cooperators survive in games that eliminate them under well-mixed
// interaction by clustering into mutually supporting neighborhoods (see
// examples/lattice_cooperation).
//
// Built-in topologies (see Names, Lookup, Parse):
//
//   - "wellmixed" (default): the complete graph, bit-identical per seed to
//     the pre-topology engines.  It is represented virtually (no adjacency
//     storage), so the default costs nothing at any population size.
//   - "ring": a one-dimensional ring lattice where each SSet is linked to
//     the k/2 nearest SSets on each side ("ring:k", default k = 4).
//   - "torus": a two-dimensional periodic lattice over a near-square
//     rows×cols factorization of S, with the von Neumann (4-neighbor) or
//     Moore (8-neighbor) neighborhood ("torus:vonneumann" (default) or
//     "torus:moore").
//   - "smallworld": a Watts–Strogatz graph — the ring lattice of degree k
//     with each clockwise edge rewired to a uniform random target with
//     probability p ("smallworld:k:p", default k = 4, p = 0.1).
//
// Graphs are built deterministically from the run seed (the small-world
// rewiring consumes a dedicated stream derived from it), so every engine
// and every rank of the distributed engine reconstructs the identical graph
// independently, with no graph ever crossing the wire.  All built-in graphs
// are undirected (the neighbor relation is symmetric) with no self-loops
// and minimum degree one, which the topology tests enforce.
package topology

import (
	"fmt"
	"sort"

	"evogame/internal/rng"
)

// Graph is an interaction graph over SSet indices 0..Len()-1.  Neighbor
// lists are sorted ascending so that iteration order — and therefore the
// game-play and random-number-consumption order of the engines — is
// deterministic.  Implementations must be safe for concurrent readers; the
// engines never mutate a built graph.
type Graph interface {
	// Name returns the canonical spec string that built the graph (for
	// example "ring:4"), the identity recorded in checkpoints.
	Name() string
	// Len returns the number of SSets the graph spans.
	Len() int
	// Degree returns the number of neighbors of SSet i.
	Degree(i int) int
	// Neighbor returns the k-th neighbor of SSet i in ascending index
	// order, 0 <= k < Degree(i).
	Neighbor(i, k int) int
	// Adjacent reports whether SSets i and j are linked.  The relation is
	// symmetric and irreflexive for all built-in graphs.
	Adjacent(i, j int) bool
	// Complete reports whether the graph is the complete graph (the
	// well-mixed population).  The engines use it to keep the default
	// topology on the exact pre-topology code paths.
	Complete() bool
}

// Neighbors returns the neighbor indices of SSet i in ascending order.
func Neighbors(g Graph, i int) []int {
	deg := g.Degree(i)
	out := make([]int, deg)
	for k := 0; k < deg; k++ {
		out[k] = g.Neighbor(i, k)
	}
	return out
}

// complete is the well-mixed population: every SSet is adjacent to every
// other.  It is virtual — Neighbor maps k directly to the k-th index of
// {0..n-1}\{i} — so the default topology stores nothing.
type complete struct{ n int }

func (c complete) Name() string   { return "wellmixed" }
func (c complete) Len() int       { return c.n }
func (c complete) Complete() bool { return true }

func (c complete) Degree(i int) int { return c.n - 1 }

func (c complete) Neighbor(i, k int) int {
	if k < i {
		return k
	}
	return k + 1
}

func (c complete) Adjacent(i, j int) bool {
	return i != j && i >= 0 && j >= 0 && i < c.n && j < c.n
}

// adjacency is a stored undirected graph with sorted neighbor lists.
type adjacency struct {
	name  string
	neigh [][]int
}

func (a *adjacency) Name() string   { return a.name }
func (a *adjacency) Len() int       { return len(a.neigh) }
func (a *adjacency) Complete() bool { return false }

func (a *adjacency) Degree(i int) int      { return len(a.neigh[i]) }
func (a *adjacency) Neighbor(i, k int) int { return a.neigh[i][k] }

func (a *adjacency) Adjacent(i, j int) bool {
	if i < 0 || i >= len(a.neigh) {
		return false
	}
	row := a.neigh[i]
	idx := sort.SearchInts(row, j)
	return idx < len(row) && row[idx] == j
}

// newAdjacency freezes an edge-set representation into an adjacency graph
// with sorted neighbor lists, verifying the structural invariants every
// engine relies on (symmetry, no self-loops, minimum degree one).
func newAdjacency(name string, n int, edges []map[int]bool) (*adjacency, error) {
	a := &adjacency{name: name, neigh: make([][]int, n)}
	for i := 0; i < n; i++ {
		row := make([]int, 0, len(edges[i]))
		for j := range edges[i] {
			if j == i {
				return nil, fmt.Errorf("topology: %s: self-loop at %d", name, i)
			}
			if !edges[j][i] {
				return nil, fmt.Errorf("topology: %s: asymmetric edge %d->%d", name, i, j)
			}
			row = append(row, j)
		}
		if len(row) == 0 {
			return nil, fmt.Errorf("topology: %s: SSet %d has no neighbors", name, i)
		}
		sort.Ints(row)
		a.neigh[i] = row
	}
	return a, nil
}

// buildRingEdges links each node to the deg/2 nearest nodes on each side of
// a ring of n nodes, deduplicating wrap-around overlaps for small n.
func buildRingEdges(n, deg int) []map[int]bool {
	edges := make([]map[int]bool, n)
	for i := range edges {
		edges[i] = make(map[int]bool, deg)
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= deg/2; d++ {
			j := (i + d) % n
			if j == i {
				continue
			}
			edges[i][j] = true
			edges[j][i] = true
		}
	}
	return edges
}

func buildRing(spec Spec, n int, _ *rng.Source) (Graph, error) {
	if err := validateRingDegree(spec.Degree, n); err != nil {
		return nil, err
	}
	return newAdjacency(spec.String(), n, buildRingEdges(n, spec.Degree))
}

// checkDegree rejects a lattice degree that is not a positive even number.
func checkDegree(deg int) error {
	if deg < 2 || deg%2 != 0 {
		return fmt.Errorf("topology: ring degree must be a positive even number, got %d", deg)
	}
	return nil
}

// checkRewire rejects a rewiring probability outside [0, 1]; it is written
// so that NaN, which fails every comparison, is rejected too.
func checkRewire(rewire float64) error {
	if !(rewire >= 0 && rewire <= 1) {
		return fmt.Errorf("topology: small-world rewire probability %v outside [0,1]", rewire)
	}
	return nil
}

// validateRingDegree is checkDegree plus the bound by the SSet count; Build
// repeats checkDegree for specs assembled by hand rather than by Parse.
func validateRingDegree(deg, n int) error {
	if err := checkDegree(deg); err != nil {
		return err
	}
	if deg > n-1 {
		return fmt.Errorf("topology: ring degree %d too large for %d SSets (max %d)", deg, n, n-1)
	}
	return nil
}

// torusDims returns the near-square rows×cols factorization of n used by
// the torus topology: rows is the largest divisor of n not exceeding
// sqrt(n).  A prime n degenerates to a 1×n torus, which the neighborhood
// construction collapses to a ring.
func torusDims(n int) (rows, cols int) {
	rows = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			rows = d
		}
	}
	return rows, n / rows
}

func buildTorus(spec Spec, n int, _ *rng.Source) (Graph, error) {
	moore := spec.Neighborhood == NeighborhoodMoore
	if !moore && spec.Neighborhood != NeighborhoodVonNeumann {
		return nil, fmt.Errorf("topology: unknown torus neighborhood %q (want %s or %s)",
			spec.Neighborhood, NeighborhoodVonNeumann, NeighborhoodMoore)
	}
	if n < 3 {
		return nil, fmt.Errorf("topology: torus needs at least 3 SSets, got %d", n)
	}
	rows, cols := torusDims(n)
	offsets := [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}}
	if moore {
		offsets = append(offsets, [2]int{-1, -1}, [2]int{-1, 1}, [2]int{1, -1}, [2]int{1, 1})
	}
	edges := make([]map[int]bool, n)
	for i := range edges {
		edges[i] = make(map[int]bool, len(offsets))
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			for _, off := range offsets {
				nr := ((r+off[0])%rows + rows) % rows
				nc := ((c+off[1])%cols + cols) % cols
				j := nr*cols + nc
				if j == i {
					// Wrap-around on a dimension of length 1 (or a diagonal
					// on a 1×n torus) can point back at the cell itself.
					continue
				}
				edges[i][j] = true
				edges[j][i] = true
			}
		}
	}
	return newAdjacency(spec.String(), n, edges)
}

// buildSmallWorld is the Watts–Strogatz construction: a ring lattice of
// degree k whose clockwise edges are each rewired with probability p to a
// uniform random non-adjacent target.  The edge keeps its origin node, so
// every node retains at least its k/2 clockwise stubs and the graph stays
// connected in practice for p well below 1.
func buildSmallWorld(spec Spec, n int, src *rng.Source) (Graph, error) {
	if err := validateRingDegree(spec.Degree, n); err != nil {
		return nil, err
	}
	if err := checkRewire(spec.Rewire); err != nil {
		return nil, err
	}
	edges := buildRingEdges(n, spec.Degree)
	for i := 0; i < n; i++ {
		for d := 1; d <= spec.Degree/2; d++ {
			j := (i + d) % n
			if j == i || !edges[i][j] || !src.Bool(spec.Rewire) {
				continue
			}
			// A node adjacent to everyone else has no rewiring target.
			if len(edges[i]) >= n-1 {
				continue
			}
			target := src.Intn(n)
			for target == i || edges[i][target] {
				target = src.Intn(n)
			}
			delete(edges[i], j)
			delete(edges[j], i)
			edges[i][target] = true
			edges[target][i] = true
		}
	}
	return newAdjacency(spec.String(), n, edges)
}
