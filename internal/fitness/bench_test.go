package fitness

import (
	"sync/atomic"
	"testing"

	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// BenchmarkPairCacheSharedHits measures the ensemble's hot path: every
// goroutine holds its own view over one warmed memory-six store and serves
// 64-lane PlayIDBatch calls that all hit.  One op is one batch; with -cpu
// 1,2 the hits/s metric shows whether a second core adds throughput.
func BenchmarkPairCacheSharedHits(b *testing.B) {
	cfg := game.EngineConfig{Rounds: 64, MemorySteps: 6}
	eng, err := game.NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := NewPairCache(eng)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(2013)
	ids := make([]uint32, 2*game.BatchLanes)
	for i := range ids {
		if ids[i], err = cache.Interner().Intern(strategy.RandomPure(6, src)); err != nil {
			b.Fatal(err)
		}
	}
	// Focal i meets the BatchLanes strategies after it, cyclically.
	opps := make([][]uint32, len(ids))
	out := make([]game.Result, game.BatchLanes)
	for i := range ids {
		opps[i] = make([]uint32, game.BatchLanes)
		for k := range opps[i] {
			opps[i][k] = ids[(i+1+k)%len(ids)]
		}
		if err := cache.PlayIDBatch(ids[i], opps[i], out); err != nil {
			b.Fatal(err)
		}
	}
	var worker atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		veng, err := game.NewEngine(cfg)
		if err != nil {
			b.Error(err)
			return
		}
		view, err := cache.NewView(veng)
		if err != nil {
			b.Error(err)
			return
		}
		out := make([]game.Result, game.BatchLanes)
		i := int(worker.Add(1)) * 17
		for pb.Next() {
			f := i % len(ids)
			if err := view.PlayIDBatch(ids[f], opps[f], out); err != nil {
				b.Error(err)
				return
			}
			i++
		}
		if view.Misses() != 0 {
			b.Errorf("warmed store missed %d times", view.Misses())
		}
	})
	b.ReportMetric(float64(b.N*game.BatchLanes)/b.Elapsed().Seconds(), "hits/s")
}
