package population

import (
	"fmt"
	"math"
	"testing"

	"evogame/internal/rng"
	"evogame/internal/strategy"
	"evogame/internal/topology"
)

// countTwins returns a well-mixed model of cfg, whose EvalFull events take
// the count path, and a twin on ring:(S−1).  For odd S that ring is the
// complete graph stored as sorted adjacency lists, so the twin takes the
// neighbour-scan path over the same neighbours in the same order.  The
// twin's game stream starts in the well-mixed model's state.
func countTwins(t *testing.T, cfg Config) (wm, ring *Model) {
	t.Helper()
	spec, err := topology.Parse(fmt.Sprintf("ring:%d", cfg.NumSSets-1))
	if err != nil {
		t.Fatal(err)
	}
	wm = mustModel(t, cfg)
	cfg.Topology = spec
	ring = mustModel(t, cfg)
	if !wm.byCount || ring.byCount {
		t.Fatalf("count path on the well-mixed model %v, on the ring %v; want true, false", wm.byCount, ring.byCount)
	}
	if err := ring.src.SetState(wm.src.State()); err != nil {
		t.Fatal(err)
	}
	return wm, ring
}

// twinEvent runs the pairwise-comparison event of teacher a and learner b
// on both twins and fails on the first difference: the two fitness values
// bit for bit, the queued games in order, and the game stream after the
// event's noise splits.
func twinEvent(t *testing.T, wm, ring *Model, a, b int) {
	t.Helper()
	fa, fb, err := wm.fitnessPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb, err := ring.fitnessPair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(fa) != math.Float64bits(ra) || math.Float64bits(fb) != math.Float64bits(rb) {
		t.Fatalf("event (%d, %d): count path (%v, %v), neighbour scan (%v, %v)", a, b, fa, fb, ra, rb)
	}
	p, q := &wm.pairs, &ring.pairs
	if p.misses != q.misses {
		t.Fatalf("event (%d, %d): count path queued %d games, neighbour scan %d", a, b, p.misses, q.misses)
	}
	for k := 0; k < p.misses; k++ {
		if !samePlayer(p.missFocal[k], q.missFocal[k]) || !samePlayer(p.missOpps[k], q.missOpps[k]) {
			t.Fatalf("event (%d, %d): queued game %d is %v vs %v, neighbour scan %v vs %v",
				a, b, k, p.missFocal[k], p.missOpps[k], q.missFocal[k], q.missOpps[k])
		}
	}
	if wm.src.State() != ring.src.State() {
		t.Fatalf("event (%d, %d): game streams diverged", a, b)
	}
}

func samePlayer(x, y any) bool { return x.(strategy.Strategy).Equal(y.(strategy.Strategy)) }

// twinSet makes SSet i hold s on both twins.
func twinSet(t *testing.T, wm, ring *Model, i int, s strategy.Strategy) {
	t.Helper()
	if err := wm.applyStrategyChange(i, s); err != nil {
		t.Fatal(err)
	}
	if err := ring.applyStrategyChange(i, s.Clone()); err != nil {
		t.Fatal(err)
	}
}

// twinAdopt makes learner adopt teacher's strategy on both twins.
func twinAdopt(t *testing.T, wm, ring *Model, learner, teacher int) {
	t.Helper()
	if err := wm.adopt(learner, teacher); err != nil {
		t.Fatal(err)
	}
	if err := ring.adopt(learner, teacher); err != nil {
		t.Fatal(err)
	}
}

// TestFitnessPairCountPathMatchesNeighbourScan holds the count path — sums
// by strategy count, misses queued by first holder — to the neighbour scan
// over the same complete graph, event by event, noisy and noiseless.  The
// population repeats a pool of four strategies, so events meet self-pairs
// on either side, teacher and learner holding one strategy, and focal
// SSets that are their strategy's first holder; the test fails unless each
// case occurs.  An early change moves first holders, so first-holder order
// differs from ID order.
func TestFitnessPairCountPathMatchesNeighbourScan(t *testing.T) {
	pool := []strategy.Strategy{strategy.WSLS(1), strategy.TFT(1), strategy.AllD(1), strategy.AllC(1)}
	for _, noise := range []float64{0.05, 0} {
		t.Run(fmt.Sprintf("noise%v", noise), func(t *testing.T) {
			cfg := baseConfig()
			cfg.NumSSets, cfg.Rounds, cfg.Noise = 15, 40, noise
			cfg.InitialStrategies = make([]strategy.Strategy, cfg.NumSSets)
			for i := range cfg.InitialStrategies {
				cfg.InitialStrategies[i] = pool[(i*i+i/2)%len(pool)]
			}
			wm, ring := countTwins(t, cfg)
			var selfA, selfB, shared, firstA, firstB bool
			event := func(a, b int) {
				tab := wm.table
				ida, idb := tab.ID(a), tab.ID(b)
				selfA = selfA || tab.Count(ida) > 1
				selfB = selfB || tab.Count(idb) > 1
				shared = shared || ida == idb
				firstA = firstA || (tab.First(ida) == a && tab.Count(ida) > 1)
				firstB = firstB || (tab.First(idb) == b && tab.Count(idb) > 1)
				twinEvent(t, wm, ring, a, b)
			}
			// SSet 0 leaves its strategy, so its first holder is now a later
			// SSet, and takes AllD, whose first holder it becomes.
			twinSet(t, wm, ring, 0, strategy.AllD(1))
			for _, ab := range [][2]int{{0, 4}, {4, 0}, {1, 2}, {2, 9}, {9, 2}} {
				event(ab[0], ab[1])
			}
			pick := rng.New(7)
			for ev := 0; ev < 400; ev++ {
				a, b, err := pick.Pair(cfg.NumSSets)
				if err != nil {
					t.Fatal(err)
				}
				event(a, b)
				switch pick.Intn(4) {
				case 0:
					twinAdopt(t, wm, ring, b, a)
				case 1:
					twinSet(t, wm, ring, pick.Intn(cfg.NumSSets), pool[pick.Intn(len(pool))])
				case 2:
					twinSet(t, wm, ring, pick.Intn(cfg.NumSSets), strategy.RandomPure(1, pick))
				}
			}
			if !selfA || !selfB || !shared || !firstA || !firstB {
				t.Fatalf("cases met: self-pair teacher %v learner %v, one strategy %v, first holder teacher %v learner %v; want all",
					selfA, selfB, shared, firstA, firstB)
			}
		})
	}
}

// FuzzFitnessPairOrder is the count-path oracle over drawn populations:
// odd S from 3 to 29, a pool of one to five pure strategies of memory one
// or two, noise on or off, and a sequence of events each followed by an
// adoption, a change to a pool strategy, a change to a fresh strategy or
// nothing.
func FuzzFitnessPairOrder(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), true, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint64(2), uint8(0), uint8(0), false, []byte{1, 1, 1})
	f.Add(uint64(3), uint8(13), uint8(9), true, []byte{255, 0, 128, 7, 7, 7, 64, 33})
	f.Fuzz(func(t *testing.T, seed uint64, size, poolSize uint8, noisy bool, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		n, k, mem := 3+2*(int(size)%14), 1+int(poolSize)%5, 1+int(poolSize/5)%2
		src := rng.New(seed)
		pool := make([]strategy.Strategy, k)
		for i := range pool {
			pool[i] = strategy.RandomPure(mem, src)
		}
		cfg := baseConfig()
		cfg.NumSSets, cfg.MemorySteps, cfg.Rounds = n, mem, 20
		if noisy {
			cfg.Noise = 0.05
		}
		cfg.InitialStrategies = make([]strategy.Strategy, n)
		for i := range cfg.InitialStrategies {
			cfg.InitialStrategies[i] = pool[src.Intn(k)]
		}
		wm, ring := countTwins(t, cfg)
		for _, op := range ops {
			a, b, err := src.Pair(n)
			if err != nil {
				t.Fatal(err)
			}
			twinEvent(t, wm, ring, a, b)
			switch op % 4 {
			case 0:
				twinAdopt(t, wm, ring, b, a)
			case 1:
				twinSet(t, wm, ring, int(op/4)%n, pool[int(op/16)%k])
			case 2:
				twinSet(t, wm, ring, int(op/4)%n, strategy.RandomPure(mem, src))
			}
		}
	})
}
