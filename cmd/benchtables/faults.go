package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"evogame/internal/faults"
	"evogame/internal/parallel"
	"evogame/internal/population"
	"evogame/internal/stats"
	"evogame/internal/supervise"
)

// The faults table measures the cost of the fault-tolerant tier
// (docs/FAULT_TOLERANCE.md) from two angles:
//
//   - Injector-off overhead: the hardened mpi fabric consults its
//     FaultInjector on every send and generation fault-point.  The
//     "armed-idle" row runs the identical workload with a plan whose only
//     event can never fire, so every hook takes the injector-consultation
//     path; the ratio against the nil-injector baseline is the price of
//     the hooks themselves, pinned at <= 2%.
//   - Recovery cost: supervised runs with a mid-run injected crash, on
//     both engines, reporting restarts and the recovery wall-clock the
//     supervisor adds on top of the fault-free run.
//
// Wall-clock rows take the best of several repeats so one scheduling
// hiccup cannot fake an overhead.  The committed BENCH_9.json is this
// table's -json output; baseline_test.go guards its schema and the
// overhead claim.

// faultsOverhead is the injector-off overhead measurement of the faults
// table (one per BENCH_9.json).
type faultsOverhead struct {
	// BaselineSeconds is the best-of-N wall-clock with a nil injector;
	// ArmedIdleSeconds the same workload with an armed plan that never
	// fires.  OverheadRatio = armed / baseline.
	BaselineSeconds  float64 `json:"baseline_seconds"`
	ArmedIdleSeconds float64 `json:"armed_idle_seconds"`
	OverheadRatio    float64 `json:"overhead_ratio"`
	Repeats          int     `json:"repeats"`
}

// faultsRecoveryRow is one supervised-recovery measurement.
type faultsRecoveryRow struct {
	Engine string `json:"engine"`
	// Spec is the injected fault plan; SegmentEvery the supervisor's
	// checkpoint cadence.
	Spec         string `json:"spec"`
	SegmentEvery int    `json:"segment_every"`
	Restarts     int    `json:"restarts"`
	// FaultFreeSeconds is the same workload without faults;
	// RecoveredSeconds the supervised faulty run end to end;
	// RecoverySeconds the supervisor's own recovery accounting
	// (backoff + checkpoint reload), a component of the difference.
	FaultFreeSeconds float64 `json:"fault_free_seconds"`
	RecoveredSeconds float64 `json:"recovered_seconds"`
	RecoverySeconds  float64 `json:"recovery_seconds"`
}

// faultsDoc is the machine-readable envelope of the faults table.
type faultsDoc struct {
	Table       string              `json:"table"`
	Seed        uint64              `json:"seed"`
	Ranks       int                 `json:"ranks"`
	SSets       int                 `json:"ssets"`
	Generations int                 `json:"generations"`
	GoMaxProcs  int                 `json:"go_max_procs"`
	Overhead    faultsOverhead      `json:"overhead"`
	Recovery    []faultsRecoveryRow `json:"recovery"`
}

// faultsWorkload is the common distributed workload of the faults table.
func faultsWorkload(opts options, generations int) parallel.Config {
	return parallel.Config{
		Ranks:         5,
		NumSSets:      128,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        200,
		PCRate:        0.1,
		MutationRate:  0.05,
		Beta:          1,
		Generations:   generations,
		Seed:          opts.seed,
		OptLevel:      parallel.OptFusedFitness,
	}
}

// serialFaultsWorkload is the serial twin of the distributed workload.
func serialFaultsWorkload(opts options) population.Config {
	return population.Config{
		NumSSets:      128,
		AgentsPerSSet: 2,
		MemorySteps:   1,
		Rounds:        200,
		PCRate:        0.1,
		MutationRate:  0.05,
		Beta:          1,
		Seed:          opts.seed,
	}
}

// bestOf runs fn repeats times and returns the minimum wall-clock.
func bestOf(repeats int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < best {
			best = sec
		}
	}
	return best, nil
}

// tableFaults measures injector-off overhead and supervised recovery cost.
func tableFaults(opts options) error {
	generations, repeats := 20, 5
	if opts.full {
		generations, repeats = 60, 7
	}
	doc := faultsDoc{
		Table:       "faults",
		Seed:        opts.seed,
		Ranks:       5,
		SSets:       128,
		Generations: generations,
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Overhead:    faultsOverhead{Repeats: repeats},
	}
	if !opts.jsonOut {
		header(opts, "Faults table — injector-off overhead and supervised recovery cost")
		fmt.Fprintf(opts.out, "workload: 5 ranks, S=%d, memory-one, %d generations, opt level 3; best of %d repeats\n",
			doc.SSets, generations, repeats)
	}

	// Injector-off overhead: nil injector vs an armed plan whose single
	// event sits far past the horizon, so it arms the hooks but never
	// fires.  One warm-up run of each variant precedes measurement.
	base := faultsWorkload(opts, generations)
	idle := faultsWorkload(opts, generations)
	idle.Faults = faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 1 << 30, Rank: 1})
	for _, cfg := range []parallel.Config{base, idle} {
		if _, err := parallel.Run(cfg); err != nil {
			return err
		}
	}
	var err error
	if doc.Overhead.BaselineSeconds, err = bestOf(repeats, func() error {
		_, err := parallel.Run(base)
		return err
	}); err != nil {
		return err
	}
	if doc.Overhead.ArmedIdleSeconds, err = bestOf(repeats, func() error {
		_, err := parallel.Run(idle)
		return err
	}); err != nil {
		return err
	}
	if doc.Overhead.BaselineSeconds > 0 {
		doc.Overhead.OverheadRatio = doc.Overhead.ArmedIdleSeconds / doc.Overhead.BaselineSeconds
	}

	// Supervised recovery: a mid-run crash on each engine, recovered from
	// the newest checkpoint segment.
	const segmentEvery = 8
	crashGen := generations / 2
	pol := supervise.Policy{MaxRestarts: 3, SegmentEvery: segmentEvery}

	pFree, err := bestOf(1, func() error {
		_, err := parallel.Run(faultsWorkload(opts, generations))
		return err
	})
	if err != nil {
		return err
	}
	pSpec := fmt.Sprintf("crash@%d:r2", crashGen)
	pCfg := faultsWorkload(opts, generations)
	if pCfg.Faults, err = faults.Parse(pSpec, opts.seed, pCfg.Ranks); err != nil {
		return err
	}
	pStart := time.Now()
	_, pRep, err := supervise.RunParallel(pCfg, pol)
	if err != nil {
		return err
	}
	doc.Recovery = append(doc.Recovery, faultsRecoveryRow{
		Engine:           "parallel",
		Spec:             pSpec,
		SegmentEvery:     segmentEvery,
		Restarts:         pRep.Restarts,
		FaultFreeSeconds: pFree,
		RecoveredSeconds: time.Since(pStart).Seconds(),
		RecoverySeconds:  pRep.Recovery.Seconds(),
	})

	sBase := serialFaultsWorkload(opts)
	sFree, err := bestOf(1, func() error {
		model, err := population.New(sBase)
		if err != nil {
			return err
		}
		_, err = model.Run(context.Background(), generations)
		return err
	})
	if err != nil {
		return err
	}
	sSpec := fmt.Sprintf("crash@%d:r0", crashGen)
	sCfg := serialFaultsWorkload(opts)
	if sCfg.Faults, err = faults.Parse(sSpec, opts.seed, 1); err != nil {
		return err
	}
	sStart := time.Now()
	_, sRep, err := supervise.RunSerial(context.Background(), sCfg, generations, pol)
	if err != nil {
		return err
	}
	doc.Recovery = append(doc.Recovery, faultsRecoveryRow{
		Engine:           "serial",
		Spec:             sSpec,
		SegmentEvery:     segmentEvery,
		Restarts:         sRep.Restarts,
		FaultFreeSeconds: sFree,
		RecoveredSeconds: time.Since(sStart).Seconds(),
		RecoverySeconds:  sRep.Recovery.Seconds(),
	})

	if !opts.jsonOut {
		fmt.Fprintf(opts.out, "injector-off overhead: baseline %.3fs, armed-idle %.3fs, ratio %.4f (claim: <= 1.02)\n",
			doc.Overhead.BaselineSeconds, doc.Overhead.ArmedIdleSeconds, doc.Overhead.OverheadRatio)
	}
	t := stats.NewTable("Engine", "Spec", "SegmentEvery", "Restarts", "FaultFree (s)", "Recovered (s)", "Recovery (s)")
	for _, r := range doc.Recovery {
		t.AddRow(r.Engine, r.Spec, r.SegmentEvery, r.Restarts,
			fmt.Sprintf("%.3f", r.FaultFreeSeconds),
			fmt.Sprintf("%.3f", r.RecoveredSeconds),
			fmt.Sprintf("%.3f", r.RecoverySeconds))
	}
	return emit(opts, doc, t,
		"note: the recovered run is bit-identical to the fault-free one; restarts, retries and",
		"recovery wall-clock are the only observable differences.  BENCH_9.json is this table's",
		"-json output; see docs/FAULT_TOLERANCE.md")
}
