package population

import (
	"fmt"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// splitRecord names one queued game of an event: the focal and opponent
// strategy IDs and whether the game took a source split from the model's
// game stream.
type splitRecord struct {
	focal, opp uint32
	split      bool
}

// twoBatchPair is the event evaluation that one merged batch per event
// replaced: each focal SSet runs its pass 1, its own PlayBatch and its pass
// 2 before the partner starts, with the per-event pair cache keyed by ID
// pair.  It returns both sums and the queued games in split order.
func twoBatchPair(t *testing.T, m *Model, a, b int) (float64, float64, []splitRecord) {
	t.Helper()
	cached := map[[2]uint32]float64{}
	var order []splitRecord
	eval := func(i int) float64 {
		my, myID := m.table.Get(i), m.table.ID(i)
		deg := m.graph.Degree(i)
		queued := map[uint32]int{}
		var opps []game.Player
		var srcs []*rng.Source
		needSrcs := false
		for k := 0; k < deg; k++ {
			j := m.graph.Neighbor(i, k)
			oppID := m.table.ID(j)
			if _, ok := cached[[2]uint32{myID, oppID}]; ok {
				continue
			}
			if _, ok := queued[oppID]; ok {
				continue
			}
			opp := m.table.Get(j)
			var src *rng.Source
			if m.engine.Noise() > 0 {
				src = m.src.Split()
				needSrcs = true
			}
			queued[oppID] = len(opps)
			opps = append(opps, opp)
			srcs = append(srcs, src)
			order = append(order, splitRecord{myID, oppID, src != nil})
		}
		if !needSrcs {
			srcs = nil
		}
		results := make([]game.Result, len(opps))
		if err := m.engine.PlayBatch(my, opps, srcs, results); err != nil {
			t.Fatal(err)
		}
		m.games += int64(len(opps))
		total := 0.0
		for k := 0; k < deg; k++ {
			oppID := m.table.ID(m.graph.Neighbor(i, k))
			key := [2]uint32{myID, oppID}
			v := cached[key]
			if q, ok := queued[oppID]; ok {
				// Forward then reverse at the first encounter: the self
				// pair's first occurrence adds FitnessA, later ones the
				// FitnessB overwrite.
				delete(queued, oppID)
				v = results[q].FitnessA
				cached[key] = v
				cached[[2]uint32{oppID, myID}] = results[q].FitnessB
			}
			total += v
		}
		return total
	}
	fa := eval(a)
	return fa, eval(b), order
}

// mergedOrder reads the merged event's queued games back from the model's
// pair rows.
func mergedOrder(t *testing.T, m *Model) []splitRecord {
	t.Helper()
	p := &m.pairs
	id := func(pl game.Player) uint32 {
		got, err := p.reg.Intern(pl.(strategy.Strategy))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	order := make([]splitRecord, p.misses)
	for k := range order {
		order[k] = splitRecord{id(p.missFocal[k]), id(p.missOpps[k]), p.noisy}
	}
	return order
}

// checkMergedEvents runs events on a model and on its twin under the
// two-batch path, holding sums, queued-game and split order, game counts
// and the game stream equal event by event.  Between events both models
// mutate one SSet, so rows follow new IDs.  It returns the largest number
// of games one merged event queued.
func checkMergedEvents(t *testing.T, cfg Config, events int, pickSeed uint64, mutate func(*rng.Source) strategy.Strategy) int {
	t.Helper()
	m, ref := mustModel(t, cfg), mustModel(t, cfg)
	pick := rng.New(pickSeed)
	most := 0
	for ev := 0; ev < events; ev++ {
		a, b, err := pick.Pair(cfg.NumSSets)
		if err != nil {
			t.Fatal(err)
		}
		if ev == 0 {
			a, b = 0, 1
		}
		fa, fb, err := m.fitnessPair(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb, refOrder := twoBatchPair(t, ref, a, b)
		if fa != ra || fb != rb {
			t.Fatalf("event %d (%d, %d): merged batch (%v, %v), two batches (%v, %v)", ev, a, b, fa, fb, ra, rb)
		}
		if got := mergedOrder(t, m); fmt.Sprint(got) != fmt.Sprint(refOrder) {
			t.Fatalf("event %d (%d, %d): merged queue/split order %v, two batches %v", ev, a, b, got, refOrder)
		}
		if m.src.State() != ref.src.State() || m.games != ref.games {
			t.Fatalf("event %d (%d, %d): game streams or game counts diverged (%d vs %d games)", ev, a, b, m.games, ref.games)
		}
		most = max(most, m.pairs.misses)
		s := mutate(pick)
		idx := pick.Intn(cfg.NumSSets)
		if err := m.applyStrategyChange(idx, s); err != nil {
			t.Fatal(err)
		}
		if err := ref.applyStrategyChange(idx, s.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	return most
}

func randomPureOf(mem int) func(*rng.Source) strategy.Strategy {
	return func(src *rng.Source) strategy.Strategy { return strategy.RandomPure(mem, src) }
}

// TestMergedEventSelfPair: teacher and learner hold the same strategy, as
// do other SSets, so the rows are shared and the noisy self pair's FitnessB
// overwrite decides the sums.
func TestMergedEventSelfPair(t *testing.T) {
	cfg := noisyPoolConfig(24, 2013)
	m, ref := mustModel(t, cfg), mustModel(t, cfg)
	if m.table.ID(0) != m.table.ID(1) {
		t.Fatal("SSets 0 and 1 must share a strategy")
	}
	fa, fb, err := m.fitnessPair(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, order := twoBatchPair(t, ref, 0, 1)
	if fa != ra || fb != rb || fmt.Sprint(mergedOrder(t, m)) != fmt.Sprint(order) || m.src.State() != ref.src.State() {
		t.Fatalf("self-pair event: merged (%v, %v), two batches (%v, %v)", fa, fb, ra, rb)
	}
	checkMergedEvents(t, cfg, 100, 3, randomPureOf(1))
}

// TestMergedEventCrossPair: teacher and learner hold different strategies,
// so the learner's pair with the teacher's strategy comes from the
// teacher's reverse fill and must not be queued a second time.
func TestMergedEventCrossPair(t *testing.T) {
	cfg := noisyPoolConfig(24, 7)
	m, ref := mustModel(t, cfg), mustModel(t, cfg)
	a, b := 0, 3
	if m.table.ID(a) == m.table.ID(b) {
		t.Fatal("SSets 0 and 3 must hold different strategies")
	}
	fa, fb, err := m.fitnessPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, order := twoBatchPair(t, ref, a, b)
	if fa != ra || fb != rb {
		t.Fatalf("cross-pair event: merged (%v, %v), two batches (%v, %v)", fa, fb, ra, rb)
	}
	got := mergedOrder(t, m)
	if fmt.Sprint(got) != fmt.Sprint(order) {
		t.Fatalf("cross-pair event: merged order %v, two batches %v", got, order)
	}
	for _, g := range got {
		if g.focal == m.table.ID(b) && g.opp == m.table.ID(a) {
			t.Fatalf("learner queued its pair with the teacher's strategy: %v", got)
		}
	}
}

// TestMergedEventRing runs the merged event off the complete graph, where
// neighbour IDs come through the Graph interface instead of the table's
// dense slice.
func TestMergedEventRing(t *testing.T) {
	spec, err := topology.Parse("ring:2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := noisyPoolConfig(40, 19)
	cfg.Topology = spec
	checkMergedEvents(t, cfg, 200, 5, randomPureOf(1))
}

// TestMergedEventChunks draws memory-two strategies at random, so nearly
// every pair of an event is distinct and the merged batch spans more than
// one 64-lane chunk.
func TestMergedEventChunks(t *testing.T) {
	cfg := noisyPoolConfig(90, 31)
	cfg.MemorySteps = 2
	src := rng.New(37)
	cfg.InitialStrategies = make([]strategy.Strategy, cfg.NumSSets)
	for i := range cfg.InitialStrategies {
		cfg.InitialStrategies[i] = strategy.RandomPure(2, src)
	}
	if most := checkMergedEvents(t, cfg, 30, 41, randomPureOf(2)); most <= game.BatchLanes {
		t.Fatalf("largest merged event queued %d games, want more than %d", most, game.BatchLanes)
	}
}
