package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"evogame/internal/rng"
)

// Torus neighborhood names accepted by the "torus" spec.
const (
	// NeighborhoodVonNeumann links each lattice cell to its four orthogonal
	// neighbors (up, down, left, right), the default torus neighborhood.
	NeighborhoodVonNeumann = "vonneumann"
	// NeighborhoodMoore additionally links the four diagonal neighbors.
	NeighborhoodMoore = "moore"
)

// Default parameter values filled in when a spec string omits them.
const (
	// DefaultDegree is the lattice degree of "ring" and "smallworld" when
	// the spec string does not name one.
	DefaultDegree = 4
	// DefaultRewire is the Watts–Strogatz rewiring probability of
	// "smallworld" when the spec string does not name one.
	DefaultRewire = 0.1
)

// buildFunc constructs a graph over n SSets from a fully resolved spec,
// drawing any randomness (only the small-world rewiring uses it) from src.
type buildFunc func(spec Spec, n int, src *rng.Source) (Graph, error)

// Spec is a resolved topology selection: a registry name plus the
// parameters the named family takes.  The zero value selects the
// well-mixed population, which keeps zero-valued engine configurations
// bit-identical to the pre-topology engines.
type Spec struct {
	// Name is the registry key ("wellmixed", "ring", "torus", "smallworld").
	// Empty selects "wellmixed".
	Name string
	// Title is a short human description of the family.
	Title string
	// Degree is the lattice degree of "ring" and "smallworld" (even, >= 2).
	// Ignored by the other families.
	Degree int
	// Neighborhood selects the "torus" neighborhood, NeighborhoodVonNeumann
	// or NeighborhoodMoore.  Ignored by the other families.
	Neighborhood string
	// Rewire is the "smallworld" Watts–Strogatz rewiring probability in
	// [0, 1].  Ignored by the other families.
	Rewire float64

	build buildFunc
}

// String returns the canonical spec string ("wellmixed", "ring:4",
// "torus:moore", "smallworld:4:0.1").  Parse(s.String()) reproduces the
// spec, and the rendering is the topology identity recorded in checkpoints.
func (s Spec) String() string {
	switch s.Name {
	case "", "wellmixed":
		return "wellmixed"
	case "ring":
		return fmt.Sprintf("ring:%d", s.Degree)
	case "torus":
		return "torus:" + s.Neighborhood
	case "smallworld":
		return fmt.Sprintf("smallworld:%d:%s", s.Degree, strconv.FormatFloat(s.Rewire, 'g', -1, 64))
	default:
		return s.Name
	}
}

// seedSalt decorrelates the topology construction stream from the engine
// streams derived from the same run seed (splitmix64's gamma constant).
const seedSalt = 0x9E3779B97F4A7C15

// Build constructs the spec's graph over n SSets, deterministically from
// the run seed: the same (spec, n, seed) triple always yields the same
// graph, so the serial engine, every rank of the distributed engine and any
// analysis tooling can each rebuild it independently.  A zero-valued spec
// builds the well-mixed (complete) graph.
func (s Spec) Build(n int, seed uint64) (Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: need at least 2 SSets, got %d", n)
	}
	if s.Name == "" || s.Name == "wellmixed" {
		return complete{n: n}, nil
	}
	if s.build == nil {
		// A Spec assembled by hand rather than through Lookup/Parse: resolve
		// the builder from the registry by name.
		reg, err := Lookup(s.Name)
		if err != nil {
			return nil, err
		}
		s.build = reg.build
	}
	return s.build(s, n, rng.New(seed^seedSalt))
}

func buildWellMixed(_ Spec, n int, _ *rng.Source) (Graph, error) {
	return complete{n: n}, nil
}

// specs is the topology registry, fixed at compile time.
var specs = map[string]Spec{
	"wellmixed": {
		Name:  "wellmixed",
		Title: "complete graph: every SSet interacts with every other (the paper's model)",
		build: buildWellMixed,
	},
	"ring": {
		Name:   "ring",
		Title:  "one-dimensional ring lattice, k/2 nearest neighbors per side",
		Degree: DefaultDegree,
		build:  buildRing,
	},
	"torus": {
		Name:         "torus",
		Title:        "two-dimensional periodic lattice (near-square rows x cols factorization)",
		Neighborhood: NeighborhoodVonNeumann,
		build:        buildTorus,
	},
	"smallworld": {
		Name:   "smallworld",
		Title:  "Watts-Strogatz ring with random edge rewiring",
		Degree: DefaultDegree,
		Rewire: DefaultRewire,
		build:  buildSmallWorld,
	},
}

// Lookup returns the registered topology family with the given name (no
// parameter suffix) carrying its default parameters.
func Lookup(name string) (Spec, error) {
	s, ok := specs[name]
	if !ok {
		return Spec{}, fmt.Errorf("topology: unknown topology %q (want one of %v)", name, Names())
	}
	return s, nil
}

// Names returns the sorted names of all registered topology families.
func Names() []string {
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Syntax returns the parameter syntax accepted by Parse for the named
// family, for help texts ("ring[:degree]" and so on).
func Syntax(name string) string {
	switch name {
	case "ring":
		return "ring[:degree]"
	case "torus":
		return "torus[:vonneumann|moore]"
	case "smallworld":
		return "smallworld[:degree[:rewire-prob]]"
	default:
		return name
	}
}

// Parse resolves a topology selection string — a registry name with
// optional colon-separated parameters — to a Spec:
//
//	"" or "wellmixed"     the complete graph (the default)
//	"ring" or "ring:8"    ring lattice, optional even degree
//	"torus:moore"         torus, optional neighborhood name
//	"smallworld:6:0.2"    Watts-Strogatz, optional degree and rewire prob
//
// It rejects every parameter that is invalid whatever the population size:
// a degree that is not a positive even number and a rewire probability
// outside [0, 1] (NaN included).  Only the bound of a degree by the SSet
// count waits for Build.
func Parse(sel string) (Spec, error) {
	if sel == "" {
		sel = "wellmixed"
	}
	parts := strings.Split(sel, ":")
	spec, err := Lookup(parts[0])
	if err != nil {
		return Spec{}, err
	}
	args := parts[1:]
	switch spec.Name {
	case "wellmixed":
		if len(args) > 0 {
			return Spec{}, fmt.Errorf("topology: wellmixed takes no parameters, got %q", sel)
		}
	case "ring":
		if len(args) > 1 {
			return Spec{}, fmt.Errorf("topology: want %s, got %q", Syntax("ring"), sel)
		}
		if len(args) == 1 {
			deg, err := strconv.Atoi(args[0])
			if err != nil {
				return Spec{}, fmt.Errorf("topology: ring degree %q: %w", args[0], err)
			}
			if err := checkDegree(deg); err != nil {
				return Spec{}, err
			}
			spec.Degree = deg
		}
	case "torus":
		if len(args) > 1 {
			return Spec{}, fmt.Errorf("topology: want %s, got %q", Syntax("torus"), sel)
		}
		if len(args) == 1 {
			spec.Neighborhood = args[0]
		}
		if spec.Neighborhood != NeighborhoodVonNeumann && spec.Neighborhood != NeighborhoodMoore {
			return Spec{}, fmt.Errorf("topology: unknown torus neighborhood %q (want %s or %s)",
				spec.Neighborhood, NeighborhoodVonNeumann, NeighborhoodMoore)
		}
	case "smallworld":
		if len(args) > 2 {
			return Spec{}, fmt.Errorf("topology: want %s, got %q", Syntax("smallworld"), sel)
		}
		if len(args) >= 1 {
			deg, err := strconv.Atoi(args[0])
			if err != nil {
				return Spec{}, fmt.Errorf("topology: smallworld degree %q: %w", args[0], err)
			}
			if err := checkDegree(deg); err != nil {
				return Spec{}, err
			}
			spec.Degree = deg
		}
		if len(args) == 2 {
			p, err := strconv.ParseFloat(args[1], 64)
			if err != nil {
				return Spec{}, fmt.Errorf("topology: smallworld rewire probability %q: %w", args[1], err)
			}
			if err := checkRewire(p); err != nil {
				return Spec{}, err
			}
			spec.Rewire = p
		}
	default:
		if len(args) > 0 {
			return Spec{}, fmt.Errorf("topology: %s takes no Parse parameters, got %q", spec.Name, sel)
		}
	}
	return spec, nil
}
