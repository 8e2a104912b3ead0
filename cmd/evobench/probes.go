package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"evogame/internal/checkpoint"
	"evogame/internal/fitness"
	"evogame/internal/game"
	"evogame/internal/intern"
	"evogame/internal/mpi"
	"evogame/internal/nature"
	"evogame/internal/population"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// Probe sizes.  Each probe is the median of probeBatches timed batches
// after one warm-up batch.
const (
	probeBatches = 5
	probeFocal   = 16   // focal SSets per table for the game and cache probes
	rngDraws     = 1e5  // Bool draws per batch
	rngSplits    = 1e4  // Splits per batch
	matrixRows   = 64   // matrix updates per batch
	natureGens   = 2000 // Nature Agent generations per batch
	stepsPerLot  = 200  // population steps per batch
	bcastsPerLot = 500  // broadcasts per batch
	nsPerMicro   = 1e3  // nanoseconds per microsecond
	nsPerMilli   = 1e6  // nanoseconds per millisecond
	fitnessBytes = 8    // a fitness return: the payload when no messages ran
)

// runProbes times each layer's public functions on inputs from the traced
// run — its initial table, which the seed determines, and the tables it
// captured — and stores the results in L.  Every probe runs under its own
// span, a child of the traced run's root.
func runProbes(tr *tracer, root int, w workload, seed uint64, dir string, t tracedRun, L map[string]float64) error {
	cfg, err := populationConfig(w.simulation(seed, 0))
	if err != nil {
		return err
	}
	model, err := population.New(cfg)
	if err != nil {
		return err
	}
	tables := append([][]strategy.Strategy{model.Strategies()}, t.tables...)
	final := tables[len(tables)-1]
	eng := w.engineConfig()
	noiseless := eng
	noiseless.Noise = 0

	v, err := probe(tr, root, "game", gameProbe(eng, tables, seed))
	if err != nil {
		return err
	}
	L["game.ns_per_game"], L["game.allocs_per_game"] = v[0], v[1]

	if v, err = probe(tr, root, "rng", rngProbe(seed)); err != nil {
		return err
	}
	L["rng.bool_ns"], L["rng.split_ns"], L["rng.split_allocs"] = v[0], v[1], v[2]

	if v, err = probe(tr, root, "fitness.cache", cacheProbe(noiseless, tables)); err != nil {
		return err
	}
	L["fitness.miss_ns"], L["fitness.hit_ns"] = v[0], v[1]

	matrix, err := matrixProbe(noiseless, final)
	if err != nil {
		return err
	}
	if v, err = probe(tr, root, "fitness.matrix", matrix); err != nil {
		return err
	}
	L["fitness.matrix_update_us"], L["fitness.matrix_fitness_ns"] = v[0], v[1]

	if v, err = probe(tr, root, "intern", internProbe(tables)); err != nil {
		return err
	}
	L["intern.insert_ns"], L["intern.hit_ns"] = v[0], v[1]

	nat := nature.Config{PCRate: w.pcRate, MutationRate: w.mutation, MemorySteps: w.memory}
	if v, err = probe(tr, root, "nature", natureProbe(nat, len(final), seed)); err != nil {
		return err
	}
	L["nature.ns_per_gen"] = v[0]

	if w.engine != serialEngine {
		// The traced run stepped no population.Model; time the fresh one at
		// the workload's configuration (its serial equivalent for the
		// distributed engine).  Its spans feed the population metrics.
		if err := populationProbe(tr, root, model); err != nil {
			return err
		}
	}

	payload := fitnessBytes
	if msgs := L["mpi.msgs_per_gen"]; msgs > 0 {
		payload = int(L["mpi.bytes_per_gen"]/msgs + 0.5)
	}
	if v, err = probe(tr, root, "mpi", bcastProbe(max(2, w.ranks), payload)); err != nil {
		return err
	}
	L["mpi.bcast_us"] = v[0]

	path := filepath.Join(dir, "probe.ckpt")
	snap := checkpoint.Snapshot{Seed: seed, MemorySteps: w.memory, Strategies: final}
	if v, err = probe(tr, root, "checkpoint", checkpointProbe(path, snap)); err != nil {
		return err
	}
	L["checkpoint.save_ms"] = v[0]
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	L["checkpoint.bytes"] = float64(info.Size())
	return nil
}

// probe runs one warm-up batch and probeBatches timed batches of batch
// under a span and returns, for each value a batch reports, the median
// over the timed batches.
func probe(tr *tracer, parent int, name string, batch func() ([]float64, error)) ([]float64, error) {
	id := tr.begin("probe."+name, parent)
	defer tr.end(id)
	var cols [][]float64
	for i := 0; i <= probeBatches; i++ {
		vals, err := batch()
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		if i == 0 {
			cols = make([][]float64, len(vals))
			continue
		}
		for k, v := range vals {
			cols[k] = append(cols[k], v)
		}
	}
	out := make([]float64, len(cols))
	for k, c := range cols {
		out[k] = median(c)
	}
	return out, nil
}

// perOp returns the nanoseconds per operation of an interval.
func perOp(d time.Duration, ops int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(ops))
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// gameProbe times Engine.PlayBatch over 64-opponent blocks, with the
// workload's exact engine configuration: ns and allocations per game.
func gameProbe(cfg game.EngineConfig, tables [][]strategy.Strategy, seed uint64) func() ([]float64, error) {
	type call struct {
		focal game.Player
		opps  []game.Player
	}
	var calls []call
	for _, t := range tables {
		for f := 0; f < min(probeFocal, len(t)); f++ {
			opps := make([]game.Player, min(game.BatchLanes, len(t)-1))
			for k := range opps {
				opps[k] = t[(f+1+k)%len(t)]
			}
			calls = append(calls, call{t[f], opps})
		}
	}
	var srcs []*rng.Source
	if cfg.Noise > 0 {
		srcs = rng.New(seed).SplitN(game.BatchLanes)
	}
	out := make([]game.Result, game.BatchLanes)
	return func() ([]float64, error) {
		eng, err := game.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		games := 0
		m0 := mallocs()
		start := now()
		for _, c := range calls {
			var s []*rng.Source
			if srcs != nil {
				s = srcs[:len(c.opps)]
			}
			if err := eng.PlayBatch(c.focal, c.opps, s, out[:len(c.opps)]); err != nil {
				return nil, err
			}
			games += len(c.opps)
		}
		d := now().Sub(start)
		m1 := mallocs()
		return []float64{perOp(d, games), ratio(float64(m1-m0), float64(games))}, nil
	}
}

// rngProbe times rng.Source.Bool at the paper's noise level and
// rng.Source.Split, and counts Split's allocations.
func rngProbe(seed uint64) func() ([]float64, error) {
	src := rng.New(seed)
	return func() ([]float64, error) {
		hits := 0
		start := now()
		for i := 0; i < rngDraws; i++ {
			if src.Bool(0.05) {
				hits++
			}
		}
		boolNs := perOp(now().Sub(start), rngDraws)
		m0 := mallocs()
		start = now()
		for i := 0; i < rngSplits; i++ {
			src = src.Split()
		}
		splitNs := perOp(now().Sub(start), rngSplits)
		allocs := ratio(float64(mallocs()-m0), rngSplits)
		if hits == 0 {
			return nil, fmt.Errorf("no Bool(0.05) draw in %d came up true", int(rngDraws))
		}
		return []float64{boolNs, splitNs, allocs}, nil
	}
}

// cacheProbe times PairCache.PlayIDBatch on a fresh cache over the captured
// tables: the first pass (misses play their games) and the second pass
// (every pair is a hit), in ns per looked-up pair.  The cache needs a
// noiseless engine, so noisy workloads probe their noiseless counterpart.
func cacheProbe(cfg game.EngineConfig, tables [][]strategy.Strategy) func() ([]float64, error) {
	return func() ([]float64, error) {
		eng, err := game.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		cache, err := fitness.NewPairCache(eng)
		if err != nil {
			return nil, err
		}
		type call struct {
			a  uint32
			bs []uint32
		}
		var calls []call
		lookups := 0
		for _, t := range tables {
			ids := make([]uint32, len(t))
			for i, s := range t {
				if ids[i], err = cache.Interner().Intern(s); err != nil {
					return nil, err
				}
			}
			for f := 0; f < min(probeFocal, len(t)); f++ {
				bs := make([]uint32, min(game.BatchLanes, len(t)-1))
				for k := range bs {
					bs[k] = ids[(f+1+k)%len(t)]
				}
				calls = append(calls, call{ids[f], bs})
				lookups += len(bs)
			}
		}
		out := make([]game.Result, game.BatchLanes)
		pass := func() (float64, error) {
			start := now()
			for _, c := range calls {
				if err := cache.PlayIDBatch(c.a, c.bs, out[:len(c.bs)]); err != nil {
					return 0, err
				}
			}
			return perOp(now().Sub(start), lookups), nil
		}
		miss, err := pass()
		if err != nil {
			return nil, err
		}
		hit, err := pass()
		return []float64{miss, hit}, err
	}
}

// matrixProbe times IncrementalMatrix.Update (µs per update) and the
// steady-state IncrementalMatrix.Fitness read (ns per row) over the final
// table, on a matrix whose rows are all built.
func matrixProbe(cfg game.EngineConfig, table []strategy.Strategy) (func() ([]float64, error), error) {
	eng, err := game.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := fitness.NewPairCache(eng)
	if err != nil {
		return nil, err
	}
	m, err := fitness.NewIncrementalMatrix(cache, nil, table, 0, len(table))
	if err != nil {
		return nil, err
	}
	build := func() error {
		for i := range table {
			if _, err := m.Fitness(i); err != nil {
				return err
			}
		}
		return nil
	}
	if err := build(); err != nil {
		return nil, err
	}
	n := len(table)
	rows := min(matrixRows, n)
	return func() ([]float64, error) {
		start := now()
		for i := 0; i < rows; i++ {
			if err := m.Update(i, table[(i+n/2)%n]); err != nil {
				return nil, err
			}
		}
		update := perOp(now().Sub(start), rows) / nsPerMicro
		if err := build(); err != nil {
			return nil, err
		}
		start = now()
		if err := build(); err != nil {
			return nil, err
		}
		return []float64{update, perOp(now().Sub(start), n)}, nil
	}, nil
}

// internProbe interns every captured strategy into a fresh registry twice:
// the first pass inserts, the second finds; ns per Intern call.
func internProbe(tables [][]strategy.Strategy) func() ([]float64, error) {
	return func() ([]float64, error) {
		reg := intern.NewRegistry()
		pass := func() (float64, error) {
			calls := 0
			start := now()
			for _, t := range tables {
				for _, s := range t {
					if _, err := reg.Intern(s); err != nil {
						return 0, err
					}
					calls++
				}
			}
			return perOp(now().Sub(start), calls), nil
		}
		insert, err := pass()
		if err != nil {
			return nil, err
		}
		hit, err := pass()
		return []float64{insert, hit}, err
	}
}

// natureProbe times one generation of the Nature Agent's loop —
// MaybeSelectPC, DecideAdoption, RecordPC, MaybeMutation, EndGeneration —
// on a fresh agent; equal reported fitness makes every adoption a coin
// flip.
func natureProbe(cfg nature.Config, ssets int, seed uint64) func() ([]float64, error) {
	return func() ([]float64, error) {
		a, err := nature.New(cfg, rng.New(seed))
		if err != nil {
			return nil, err
		}
		start := now()
		for g := 0; g < natureGens; g++ {
			if _, _, ok := a.MaybeSelectPC(ssets); ok {
				adopted, _ := a.DecideAdoption(1, 1)
				a.RecordPC(adopted)
			}
			a.MaybeMutation(ssets)
			a.EndGeneration()
		}
		return []float64{perOp(now().Sub(start), natureGens)}, nil
	}
}

// populationProbe steps a fresh population.Model: one warm-up batch, then
// probeBatches batches of stepsPerLot steps, each step under a
// population.step span and each batch ending with a population.sample
// span.
func populationProbe(tr *tracer, parent int, m *population.Model) error {
	id := tr.begin("probe.population", parent)
	defer tr.end(id)
	for i := 0; i <= probeBatches; i++ {
		for g := 0; g < stepsPerLot; g++ {
			if i == 0 {
				if err := m.Step(); err != nil {
					return err
				}
				continue
			}
			s := tr.begin("population.step", id)
			err := m.Step()
			tr.end(s)
			if err != nil {
				return err
			}
		}
		if i > 0 {
			s := tr.begin("population.sample", id)
			m.Sample()
			tr.end(s)
		}
	}
	return nil
}

// bcastProbe times Comm.Bcast of one payload on an mpi.Run fabric of the
// given size: µs per broadcast, measured at the root from the first
// broadcast until a barrier shows every rank has received the last.
func bcastProbe(ranks, payload int) func() ([]float64, error) {
	buf := make([]byte, payload)
	return func() ([]float64, error) {
		var per float64
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			data := buf
			if c.Rank() != 0 {
				data = nil
			}
			start := now()
			for k := 0; k < bcastsPerLot; k++ {
				if _, err := c.Bcast(0, data); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == 0 {
				per = perOp(now().Sub(start), bcastsPerLot) / nsPerMicro
			}
			return nil
		})
		return []float64{per}, err
	}
}

// checkpointProbe times checkpoint.Save of the final-table snapshot (ms).
func checkpointProbe(path string, snap checkpoint.Snapshot) func() ([]float64, error) {
	return func() ([]float64, error) {
		start := now()
		if err := checkpoint.Save(path, snap); err != nil {
			return nil, err
		}
		return []float64{perOp(now().Sub(start), 1) / nsPerMilli}, nil
	}
}
