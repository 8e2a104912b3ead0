package population

import (
	"fmt"
	"testing"

	"evogame/internal/fitness"
	"evogame/internal/intern"
)

// liveClones counts the IDs of reg that still resolve to a strategy.
func liveClones(reg *intern.Registry) int {
	live := 0
	for id := uint32(0); int(id) < reg.Len(); id++ {
		if _, err := reg.Strategy(id); err == nil {
			live++
		}
	}
	return live
}

// TestEvalFullRetiresVacatedIDs steps EvalFull runs with a heavy mutation
// stream beside twins that keep every ID.  From memory fitness.RetireFrom
// up, after every generation the run's private registry holds a clone for
// each present strategy and no other, while the twin's grows with every
// mutant; below it, where extinct strategies re-enter often, no ID is
// retired.  Either way the two play the same games and hold the same
// table throughout.
func TestEvalFullRetiresVacatedIDs(t *testing.T) {
	for _, mem := range []int{fitness.RetireFrom - 1, fitness.RetireFrom} {
		t.Run(fmt.Sprintf("m%d", mem), func(t *testing.T) {
			cfg := baseConfig()
			cfg.MemorySteps, cfg.Rounds, cfg.MutationRate, cfg.Seed = mem, 20, 0.5, 7
			m, keep := mustModel(t, cfg), mustModel(t, cfg)
			keep.retires = false
			for gen := 1; gen <= 400; gen++ {
				if err := m.Step(); err != nil {
					t.Fatal(err)
				}
				if err := keep.Step(); err != nil {
					t.Fatal(err)
				}
				want := m.pairs.reg.Len()
				if mem >= fitness.RetireFrom {
					want = len(m.table.Present())
				}
				if live := liveClones(m.pairs.reg); live != want {
					t.Fatalf("generation %d: %d live clones, want %d", gen, live, want)
				}
				if m.games != keep.games || m.Sample() != keep.Sample() {
					t.Fatalf("generation %d: retiring changed the run: %d vs %d games", gen, m.games, keep.games)
				}
			}
			want, got := keep.Strategies(), m.Strategies()
			for i := range want {
				if !want[i].Equal(got[i]) {
					t.Fatalf("SSet %d: %v, the run keeping every ID %v", i, got[i], want[i])
				}
			}
			if n := m.NatureStats().Mutations; liveClones(keep.pairs.reg) <= cfg.NumSSets || n < 100 {
				t.Fatalf("%d mutations left the twin %d clones; the test needs extinct strategies", n, liveClones(keep.pairs.reg))
			}
		})
	}
}

// TestEvalFullRowsFollowPopulation runs a memory-six EvalFull population
// under heavy mutation, so the registry issues thousands of IDs, and holds
// every pair row to at most one entry per SSet after every generation: the
// rows are keyed by present position, not by issued ID.
func TestEvalFullRowsFollowPopulation(t *testing.T) {
	cfg := baseConfig()
	cfg.MemorySteps, cfg.MutationRate, cfg.Seed = 6, 0.5, 1
	m := mustModel(t, cfg)
	for gen := 1; gen <= 20000; gen++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
		p := &m.pairs
		for r := range p.stamp {
			if n := max(len(p.stamp[r]), len(p.payoff[r]), len(p.queue[r])); n > cfg.NumSSets {
				t.Fatalf("generation %d: row %d holds %d entries for %d SSets", gen, r, n, cfg.NumSSets)
			}
		}
	}
	if issued := m.pairs.reg.Len(); issued < 100*cfg.NumSSets {
		t.Fatalf("%d IDs issued; the test needs a registry far larger than the population", issued)
	}
}
