// Command benchtables regenerates every table and figure of the paper's
// evaluation section (Randles et al., IPDPS 2013).  Each experiment prints
// the same rows or series the paper reports: the strategy-space tables
// (Tables I-V), the SSet-per-processor ratio table (Table VI), the WSLS
// validation (Figure 2), the optimization-level ablation (Figure 3), strong
// scaling versus population size (Figure 4), the memory-step runtime
// breakdown (Figure 5), and the weak/strong scaling studies (Figure 6a/6b).
//
// Experiments that the paper ran on hundreds of thousands of Blue Gene
// cores are reproduced at two levels: a real run of the distributed engine
// on goroutine ranks (small scale), and the analytic performance model
// extrapolated to the paper's processor counts.  docs/REPRODUCTION.md
// records the paper-versus-measured comparison for each one.
//
// Usage:
//
//	benchtables -all            # every table and figure (quick settings)
//	benchtables -table 4        # a single table (1,2,3,4,5,6,capacity)
//	benchtables -fig 6a         # a single figure (2,3,4,5,6a,6b)
//	benchtables -full           # larger real runs (slower, closer to paper)
//	benchtables -calibrate      # measure the game kernel before modelling
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"evogame"

	"evogame/internal/game"
	"evogame/internal/parallel"
	"evogame/internal/rng"
	"evogame/internal/stats"
	"evogame/internal/strategy"
)

type options struct {
	table   string
	fig     string
	all     bool
	full    bool
	jsonOut bool
	seed    uint64
	// scaling configures the performance model; -calibrate sets its
	// CalibrateKernel.
	scaling evogame.ScalingOptions
	// out receives every table, figure and -json document.
	out io.Writer
}

// jsonTables are the tables with a -json form, in the order -all runs
// them.  Each one's committed -json output is its baseline file, which the
// tests of this package decode strictly into the table's own document type.
var jsonTables = []struct {
	name, baseline string
	run            func(options) error
}{
	{"kernel", "BENCH_5.json", tableKernel},
	{"batch", "BENCH_6.json", tableBatch},
	{"ensemble", "BENCH_7.json", tableEnsemble},
	{"artifact", "BENCH_8.json", tableArtifact},
	{"faults", "BENCH_9.json", tableFaults},
}

func main() {
	opts := options{out: os.Stdout}
	var names, baselines []string
	for _, jt := range jsonTables {
		names = append(names, jt.name)
		baselines = append(baselines, jt.baseline)
	}
	flag.StringVar(&opts.table, "table", "", "regenerate one table: 1, 2, 3, 4, 5, 6, capacity, scenarios, eval, topology, kernel, batch, ensemble, artifact, faults")
	flag.StringVar(&opts.fig, "fig", "", "regenerate one figure: 2, 3, 4, 5, 6a, 6b")
	flag.BoolVar(&opts.all, "all", false, "regenerate every table and figure")
	flag.BoolVar(&opts.full, "full", false, "use larger real runs (slower)")
	flag.BoolVar(&opts.scaling.CalibrateKernel, "calibrate", false, "measure the game kernel cost before running the performance model")
	flag.BoolVar(&opts.jsonOut, "json", false, fmt.Sprintf("emit machine-readable JSON instead of a table (supported for -table %s; %s are their committed baselines)", andList(names), andList(baselines)))
	seed := flag.Uint64("seed", 2013, "experiment seed")
	flag.Parse()
	opts.seed = *seed

	if !opts.all && opts.table == "" && opts.fig == "" {
		opts.all = true
	}
	if opts.jsonOut && !slices.Contains(names, opts.table) {
		fmt.Fprintf(os.Stderr, "benchtables: -json is supported for -table %s only\n", andList(names))
		os.Exit(1)
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// andList joins two or more items as "a, b and c".
func andList(items []string) string {
	last := len(items) - 1
	return strings.Join(items[:last], ", ") + " and " + items[last]
}

func run(opts options) error {
	type job struct {
		name string
		fn   func(options) error
	}
	jobs := []job{
		{"table 1", table1},
		{"table 2", table2},
		{"table 3", table3},
		{"table 4", table4},
		{"table 5", table5},
		{"table 6", table6},
		{"table capacity", tableCapacity},
		{"table scenarios", tableScenarios},
		{"table topology", tableTopology},
	}
	for _, jt := range jsonTables {
		jobs = append(jobs, job{"table " + jt.name, jt.run})
	}
	jobs = append(jobs,
		job{"fig 2", figure2},
		job{"fig 3", figure3},
		job{"table eval", evalModes},
		job{"fig 4", figure4},
		job{"fig 5", figure5},
		job{"fig 6a", figure6a},
		job{"fig 6b", figure6b},
	)
	selected := func(name string) bool {
		if opts.all {
			return true
		}
		if opts.table != "" && name == "table "+opts.table {
			return true
		}
		if opts.fig != "" && name == "fig "+strings.ToLower(opts.fig) {
			return true
		}
		return false
	}
	ran := 0
	for _, j := range jobs {
		if !selected(j.name) {
			continue
		}
		if err := j.fn(opts); err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("nothing selected (table=%q fig=%q)", opts.table, opts.fig)
	}
	return nil
}

// header prints a table's or figure's title line.
func header(opts options, title string) {
	fmt.Fprintln(opts.out)
	fmt.Fprintln(opts.out, "=== "+title+" ===")
}

// emit writes a table's result: doc as indented JSON under -json, else
// the text table followed by its notes, one line each.
func emit(opts options, doc any, t *stats.Table, notes ...string) error {
	if opts.jsonOut {
		enc := json.NewEncoder(opts.out)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	fmt.Fprint(opts.out, t.String())
	for _, note := range notes {
		fmt.Fprintln(opts.out, note)
	}
	return nil
}

// randomTable draws n random pure strategies of the given memory depth
// from a source seeded with seed.
func randomTable(seed uint64, n, memSteps int) []strategy.Strategy {
	src := rng.New(seed)
	table := make([]strategy.Strategy, n)
	for i := range table {
		table[i] = strategy.RandomPure(memSteps, src)
	}
	return table
}

// sweepCost is the measured cost of a kernel or batch table row.
type sweepCost struct {
	games                             int64
	seconds, nsPerGame, allocsPerGame float64
}

// timeSweeps runs sweep `sweeps` times and reports the games it played,
// the wall clock, and the mean wall-clock cost and heap allocations per
// game.
func timeSweeps(sweeps int, sweep func() (int64, error)) (sweepCost, error) {
	var c sweepCost
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for s := 0; s < sweeps; s++ {
		games, err := sweep()
		if err != nil {
			return sweepCost{}, err
		}
		c.games += games
	}
	c.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	if c.games > 0 {
		c.nsPerGame = c.seconds * 1e9 / float64(c.games)
		c.allocsPerGame = float64(m1.Mallocs-m0.Mallocs) / float64(c.games)
	}
	return c, nil
}

// parallelConfig is the distributed workload of every real-rank table and
// figure: 4 agents per SSet, the default rounds, PC rate 0.1 and mutation
// rate 0.05.
func parallelConfig(opts options, ranks, ssets, memSteps, gens, optLevel int) evogame.ParallelConfig {
	return evogame.ParallelConfig{
		Ranks: ranks, NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: memSteps,
		Rounds: evogame.DefaultRounds, PCRate: 0.1, MutationRate: 0.05,
		Generations: gens, Seed: opts.seed, OptimizationLevel: optLevel,
	}
}

// rankSweep runs cfg(r) for each SSet-rank count r, which cfg places on
// r+1 ranks (the SSet ranks plus the Nature rank), and returns the wall
// clocks in that order.
func rankSweep(ssetRanks []int, cfg func(r int) evogame.ParallelConfig) ([]float64, error) {
	walls := make([]float64, len(ssetRanks))
	for i, r := range ssetRanks {
		res, err := evogame.SimulateParallel(cfg(r))
		if err != nil {
			return nil, err
		}
		walls[i] = res.WallClockSeconds
	}
	return walls, nil
}

// realStrongScaling runs ssets memory-one SSets for gens generations on
// each SSet-rank count and tabulates speedup and efficiency against the
// first count.
func realStrongScaling(opts options, ssets, gens int, ssetRanks []int) error {
	walls, err := rankSweep(ssetRanks, func(r int) evogame.ParallelConfig {
		return parallelConfig(opts, r+1, ssets, 1, gens, 3)
	})
	if err != nil {
		return err
	}
	first := ssetRanks[0]
	rt := stats.NewTable("SSet ranks", "Wallclock (s)", "Speedup", "Efficiency (%)")
	for i, r := range ssetRanks {
		rt.AddRow(r, walls[i], stats.Speedup(walls[0], walls[i])*float64(first),
			stats.StrongEfficiency(walls[0], first, walls[i], r))
	}
	fmt.Fprint(opts.out, rt.String())
	return nil
}

// table1 prints the Prisoner's Dilemma payoff matrix (Table I).
func table1(opts options) error {
	header(opts, "Table I — Prisoner's Dilemma payoff matrix f[R,S,T,P] = [3,0,4,1]")
	m := game.Standard()
	t := stats.NewTable("", "Opponent C", "Opponent D")
	t.AddRow("Agent C", fmt.Sprintf("R=%.0f", m.Reward), fmt.Sprintf("S=%.0f", m.Sucker))
	t.AddRow("Agent D", fmt.Sprintf("T=%.0f", m.Temptation), fmt.Sprintf("P=%.0f", m.Punishment))
	fmt.Fprint(opts.out, t.String())
	return m.Validate()
}

// table2 prints the memory-one game states (Table II).
func table2(opts options) error {
	header(opts, "Table II — potential game states for a memory-one strategy")
	t := stats.NewTable("State", "Agent", "Opponent")
	for s := 0; s < game.NumStates(1); s++ {
		t.AddRow(s+1, game.Move((s>>1)&1).String(), game.Move(s&1).String())
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// table3 prints all sixteen pure memory-one strategies (Table III).
func table3(opts options) error {
	header(opts, "Table III — all potential memory-one strategies")
	t := stats.NewTable("Strategy", "State CC", "State CD", "State DC", "State DD", "Name")
	names := map[string]string{"0000": "ALLC", "1111": "ALLD", "0101": "TFT/GRIM", "0110": "WSLS", "1100": "Alternator"}
	for i, p := range strategy.AllMemoryOne() {
		row := []interface{}{i + 1}
		for s := 0; s < 4; s++ {
			row = append(row, p.Move(s, nil).String())
		}
		row = append(row, names[p.String()])
		t.AddRow(row...)
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// table4 prints the strategy-space growth (Table IV).
func table4(opts options) error {
	header(opts, "Table IV — number of pure strategies for different memory steps")
	t := stats.NewTable("Memory Steps", "Game States (4^n)", "Pure Strategies")
	for mem := 1; mem <= evogame.MaxMemorySteps; mem++ {
		states, log2, err := evogame.StrategySpaceSize(mem)
		if err != nil {
			return err
		}
		t.AddRow(mem, states, fmt.Sprintf("2^%d", log2))
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// table5 prints the WSLS state table (Table V).
func table5(opts options) error {
	header(opts, "Table V — WSLS moves for memory-one games")
	wsls := strategy.WSLS(1)
	t := stats.NewTable("State", "Previous round (agent,opponent)", "Strategy move")
	for s := 0; s < 4; s++ {
		t.AddRow(s, game.StateString(s, 1), wsls.Move(s, nil).String())
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// table6 prints the SSets-per-processor efficiency table (Table VI).
func table6(opts options) error {
	header(opts, "Table VI — parallel efficiency vs. SSets per processor (model, Blue Gene/P)")
	ratios := []float64{0.5, 1, 2, 3, 4, 5, 6, 7, 8}
	rows, err := evogame.RatioTable(opts.scaling, ratios, 2048, 6, 2048)
	if err != nil {
		return err
	}
	paper := map[float64]float64{0.5: 50, 1: 55, 2: 99.7, 3: 99.7, 4: 99.9, 5: 99.9, 6: 99.9, 7: 100, 8: 100}
	t := stats.NewTable("R (SSets/processor)", "Modelled P.E. (%)", "Paper P.E. (%)")
	for _, r := range rows {
		t.AddRow(r.Ratio, r.EfficiencyPercent, paper[r.Ratio])
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// tableCapacity prints the memory-capacity check (the paper's claim that
// memory-six is the largest depth that fits).
func tableCapacity(opts options) error {
	header(opts, "Memory capacity — largest memory depth / population that fits (Section V-C)")
	t := stats.NewTable("Machine", "Processors", "Population (SSets)", "Max memory steps", "Max SSets at memory-six")
	for _, tc := range []struct {
		machine evogame.MachineName
		procs   int
		ssets   int
	}{
		{evogame.MachineBlueGeneP, 1024, 32768},
		{evogame.MachineBlueGeneP, 16384, 32768},
		{evogame.MachineBlueGeneQ, 16384, 32768},
	} {
		cap, err := evogame.CheckMemoryCapacity(tc.machine, tc.ssets, tc.procs)
		if err != nil {
			return err
		}
		t.AddRow(string(tc.machine), tc.procs, tc.ssets, cap.MaxMemorySteps, cap.MaxTotalSSets)
	}
	fmt.Fprint(opts.out, t.String())
	return nil
}

// tableScenarios sweeps the scenario registry: every registered game is run
// under every registered update rule on the serial engine (incremental
// evaluation, noiseless) and the resulting cooperativity is reported.  This
// is the registry counterpart of Table I: the paper fixes IPD + Fermi, the
// registry opens the rest of the matrix.
func tableScenarios(opts options) error {
	header(opts, "Scenario registry — cooperativity per (game, update rule) pair")
	ssets, gens := 48, 4000
	if opts.full {
		ssets, gens = 128, 20000
	}
	fmt.Fprintf(opts.out, "serial runs: %d SSets x 4 agents, memory-one, %d generations, noiseless, eval incremental\n", ssets, gens)
	t := stats.NewTable("Game", "Payoff [R,S,T,P]", "Rule", "Distinct", "Top strategy", "Top %", "Defecting states %")
	for _, gameName := range evogame.Games() {
		if gameName == "generic" {
			// The generic spec's canonical payoff is the PD matrix, so its
			// rows would duplicate the ipd ones bit for bit.
			continue
		}
		info, err := evogame.DescribeGame(gameName)
		if err != nil {
			return err
		}
		for _, ruleName := range evogame.UpdateRules() {
			res, err := evogame.Simulate(context.Background(), evogame.SimulationConfig{
				NumSSets: ssets, AgentsPerSSet: 4, MemorySteps: 1,
				Rounds: evogame.DefaultRounds, PCRate: 1, MutationRate: 0.05, Beta: 1,
				Generations: gens, Seed: opts.seed,
				EvalMode: evogame.EvalIncremental, Game: gameName, UpdateRule: ruleName,
			})
			if err != nil {
				return fmt.Errorf("game %s rule %s: %w", gameName, ruleName, err)
			}
			last := res.Samples[len(res.Samples)-1]
			t.AddRow(gameName, fmt.Sprintf("%v", info.Payoff), ruleName,
				last.DistinctStrategies, last.TopStrategy,
				fmt.Sprintf("%.0f", 100*last.TopFraction),
				fmt.Sprintf("%.0f", 100*last.MeanDefectingStates))
		}
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "note: IPD tends toward defection-heavy strategies; snowdrift keeps cooperation at")
	fmt.Fprintln(opts.out, "equilibrium (best reply to a defector is to cooperate); stag hunt coordinates on one")
	fmt.Fprintln(opts.out, "of its equilibria.  The generic game (canonical payoff = ipd's) is omitted: pass a")
	fmt.Fprintln(opts.out, "custom matrix via cmd/evogame -game generic -payoff R,S,T,P instead")
	return nil
}

// tableTopology measures the structured-population layer on the heavy
// path: the distributed engine evaluates every SSet's fitness every
// generation under full replay (the paper's workload), so restricting
// interaction to a sparse neighbor graph cuts the games per generation
// from S*(S-1) to S*k by construction — no caching involved.  The sweep
// runs the identical workload per topology at S = 512 and reports games
// per generation and wallclock against the well-mixed baseline.
func tableTopology(opts options) error {
	header(opts, "Topology registry — games/generation and wallclock vs. well-mixed (S = 512, full evaluation)")
	ssets, gens, ranks := 512, 5, 5
	if opts.full {
		gens = 20
	}
	fmt.Fprintf(opts.out, "distributed runs: %d SSets x 4 agents, memory-one, %d generations, %d ranks, opt level 3, eval full\n",
		ssets, gens, ranks)
	t := stats.NewTable("Topology", "Mean degree", "Games/gen", "Wallclock (s)", "Speedup vs wellmixed")
	var baseWall float64
	for _, topo := range []string{"wellmixed", "ring:8", "torus:moore", "smallworld:8:0.1"} {
		cfg := parallelConfig(opts, ranks, ssets, 1, gens, 3)
		cfg.Topology = topo
		res, err := evogame.SimulateParallel(cfg)
		if err != nil {
			return fmt.Errorf("topology %s: %w", topo, err)
		}
		neigh, err := evogame.TopologyNeighbors(topo, ssets, opts.seed)
		if err != nil {
			return err
		}
		totalDeg := 0
		for _, row := range neigh {
			totalDeg += len(row)
		}
		speedup := "1.00x"
		if topo == "wellmixed" {
			baseWall = res.WallClockSeconds
		} else if res.WallClockSeconds > 0 {
			speedup = fmt.Sprintf("%.2fx", baseWall/res.WallClockSeconds)
		}
		t.AddRow(topo,
			fmt.Sprintf("%.1f", float64(totalDeg)/float64(ssets)),
			fmt.Sprintf("%.0f", float64(res.TotalGames)/float64(gens)),
			fmt.Sprintf("%.3f", res.WallClockSeconds),
			speedup)
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "note: a sparse topology makes the full evaluation O(S*k) games by construction,")
	fmt.Fprintln(opts.out, "orthogonal to (and composable with) the cached/incremental eval modes")
	return nil
}

// figure2 runs the scaled-down WSLS validation (Figure 2).
func figure2(opts options) error {
	header(opts, "Figure 2 — validation: emergence of Win-Stay Lose-Shift (scaled-down run)")
	ssets, gens := 128, 60000
	if opts.full {
		ssets, gens = 256, 300000
	}
	cfg := evogame.SimulationConfig{
		NumSSets:      ssets,
		AgentsPerSSet: 4,
		MemorySteps:   1,
		Rounds:        evogame.DefaultRounds,
		Noise:         0.05,
		PCRate:        1,
		MutationRate:  0.05,
		Beta:          1,
		Generations:   gens,
		Seed:          opts.seed,
		SampleEvery:   gens / 10,
	}
	start := time.Now()
	res, err := evogame.Simulate(context.Background(), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(opts.out, "population: %d SSets x %d agents, memory-one, %d generations (%.1fs)\n",
		cfg.NumSSets, cfg.AgentsPerSSet, res.Generations, time.Since(start).Seconds())
	t := stats.NewTable("Generation", "Distinct", "Top strategy", "Top fraction", "WSLS fraction", "ALLD fraction")
	for _, s := range res.Samples {
		t.AddRow(s.Generation, s.DistinctStrategies, s.TopStrategy, s.TopFraction, s.WSLSFraction, s.AllDFraction)
	}
	fmt.Fprint(opts.out, t.String())

	clusters, err := evogame.ClusterStrategies(res.FinalStrategies, 4, opts.seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(opts.out, "k-means clusters of the final population (Lloyd, k=4):")
	ct := stats.NewTable("Cluster", "Size", "Fraction", "Representative strategy")
	for i, c := range clusters {
		ct.AddRow(i, c.Size, c.Fraction, c.Representative)
	}
	fmt.Fprint(opts.out, ct.String())
	fmt.Fprintf(opts.out, "paper reports 85%% of SSets adopting WSLS after 10^7 generations; measured WSLS fraction: %.0f%%\n",
		100*res.WSLSFraction())
	return nil
}

// figure3 runs the optimization-level ablation (Figure 3).
func figure3(opts options) error {
	header(opts, "Figure 3 — optimization levels (real distributed runs, goroutine ranks)")
	ssets, ranks, gens := 64, 5, 20
	if opts.full {
		ssets, ranks, gens = 256, 9, 40
	}
	fmt.Fprintf(opts.out, "workload: %d SSets, memory-one, %d generations, %d ranks, 200 rounds/game\n", ssets, gens, ranks)
	t := stats.NewTable("Optimization level", "Wallclock (s)", "Mean rank compute (s)", "Mean rank comm (s)")
	for lvl := 0; lvl <= 3; lvl++ {
		res, err := evogame.SimulateParallel(parallelConfig(opts, ranks, ssets, 1, gens, lvl))
		if err != nil {
			return err
		}
		t.AddRow(parallel.OptLevel(lvl).String(), res.WallClockSeconds, res.ComputeSeconds, res.CommSeconds)
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "paper: each cumulative optimization reduces wallclock; comm stays a small share")
	return nil
}

// evalModes reports the shared incremental-fitness subsystem's speedup
// alongside the Figure 3 optimization levels: the same distributed workload
// is repeated under full replay, pair-cached and incremental fitness
// evaluation at S in {32, 128, 512} SSets.  All modes produce identical
// dynamics for a given seed; only the number of games actually played (and
// therefore the wallclock) changes.
func evalModes(opts options) error {
	header(opts, "Eval modes — incremental fitness vs. full replay (real distributed runs)")
	gens := 10
	if opts.full {
		gens = 40
	}
	fmt.Fprintf(opts.out, "workload: memory-one, %d generations, 5 ranks, opt level 3, 200 rounds/game\n", gens)
	t := stats.NewTable("SSets", "Eval mode", "Wallclock (s)", "Games/gen", "Speedup")
	for _, ssets := range []int{32, 128, 512} {
		var baseWall float64
		for _, mode := range []evogame.EvalMode{evogame.EvalFull, evogame.EvalCached, evogame.EvalIncremental} {
			cfg := parallelConfig(opts, 5, ssets, 1, gens, 3)
			cfg.EvalMode = mode
			res, err := evogame.SimulateParallel(cfg)
			if err != nil {
				return err
			}
			if mode == evogame.EvalFull {
				baseWall = res.WallClockSeconds
			}
			speedup := "1.00x"
			if res.WallClockSeconds > 0 && mode != evogame.EvalFull {
				speedup = fmt.Sprintf("%.2fx", baseWall/res.WallClockSeconds)
			}
			t.AddRow(ssets, mode.String(),
				fmt.Sprintf("%.3f", res.WallClockSeconds),
				fmt.Sprintf("%.1f", float64(res.TotalGames)/float64(gens)),
				speedup)
		}
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "note: noiseless deterministic games are pure functions of the strategy pair;")
	fmt.Fprintln(opts.out, "incremental evaluation replays only pairs never seen before")
	return nil
}

// figure4 reports strong scaling as the number of SSets grows (Figure 4).
func figure4(opts options) error {
	header(opts, "Figure 4 — strong scaling vs. population size (model, Blue Gene/P)")
	procs := []int{64, 128, 256, 512, 1024, 2048}
	t := stats.NewTable(append([]string{"SSets"}, procsHeader(procs)...)...)
	for _, ssets := range []int{1024, 2048, 4096, 8192, 16384, 32768} {
		points, err := evogame.PredictStrongScaling(opts.scaling, ssets, 6, procs)
		if err != nil {
			return err
		}
		row := []interface{}{ssets}
		for _, p := range points {
			row = append(row, fmt.Sprintf("%.1f%%", p.EfficiencyPercent))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "paper: efficiency collapses once SSets/processor < 1; larger populations scale further")

	// Small real-rank confirmation of the same trend.
	ssets := 48
	gens := 10
	if opts.full {
		ssets, gens = 96, 20
	}
	fmt.Fprintf(opts.out, "\nreal goroutine-rank confirmation (%d SSets, memory-one, %d generations):\n", ssets, gens)
	return realStrongScaling(opts, ssets, gens, []int{2, 3, 5, 9})
}

func procsHeader(procs []int) []string {
	out := make([]string, len(procs))
	for i, p := range procs {
		out[i] = fmt.Sprintf("P=%d", p)
	}
	return out
}

// figure5 reports the runtime breakdown across memory steps (Figure 5).
func figure5(opts options) error {
	header(opts, "Figure 5 — runtime breakdown vs. memory steps")
	// Real runs, scaled down from the paper's 2,048 SSets / 2,048 processors.
	ssets, ranks, gens := 32, 5, 5
	if opts.full {
		ssets, gens = 64, 10
	}
	fmt.Fprintf(opts.out, "real distributed runs: %d SSets, %d generations, %d ranks\n", ssets, gens, ranks)
	t := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)", "Wallclock (s)")
	for mem := 1; mem <= evogame.MaxMemorySteps; mem++ {
		res, err := evogame.SimulateParallel(parallelConfig(opts, ranks, ssets, mem, gens, 3))
		if err != nil {
			return err
		}
		t.AddRow(mem, res.ComputeSeconds, res.CommSeconds, res.WallClockSeconds)
	}
	fmt.Fprint(opts.out, t.String())

	// The paper attributes the runtime growth to identifying the current
	// state; the optimized rolling-code kernel flattens it, so replay the
	// low memory depths with the original linear search to expose the
	// effect (memory five and six are skipped: a 4,096-row search per round
	// is impractically slow, which is the paper's point).
	fmt.Fprintln(opts.out, "\nsame sweep with the original linear state search (optimization level 1), memory 1..4:")
	lt := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)", "Wallclock (s)")
	for mem := 1; mem <= 4; mem++ {
		res, err := evogame.SimulateParallel(parallelConfig(opts, ranks, ssets, mem, gens, 1))
		if err != nil {
			return err
		}
		lt.AddRow(mem, res.ComputeSeconds, res.CommSeconds, res.WallClockSeconds)
	}
	fmt.Fprint(opts.out, lt.String())

	fmt.Fprintln(opts.out, "\nmodel prediction for the paper's workload (2,048 SSets, 20 generations, 2,048 BG/P processors):")
	points, err := evogame.MemorySweep(opts.scaling, 2048, 20, 2048)
	if err != nil {
		return err
	}
	mt := stats.NewTable("Memory steps", "Compute (s)", "Comm (s)")
	for _, p := range points {
		mt.AddRow(p.MemorySteps, p.ComputeSeconds, p.CommSeconds)
	}
	fmt.Fprint(opts.out, mt.String())
	fmt.Fprintln(opts.out, "paper: runtime rises with memory depth (state identification), computation dominates communication")
	return nil
}

// figure6a reports weak scaling (Figure 6a).
func figure6a(opts options) error {
	header(opts, "Figure 6(a) — weak scaling, 4,096 SSets per processor, memory-six (model)")
	procsP := []int{1024, 4096, 16384, 65536, 294912}
	pointsP, err := evogame.PredictWeakScaling(opts.scaling, 4096, 4096, 6, procsP)
	if err != nil {
		return err
	}
	scalingQ := opts.scaling
	scalingQ.Machine = evogame.MachineBlueGeneQ
	procsQ := []int{1024, 4096, 16384}
	pointsQ, err := evogame.PredictWeakScaling(scalingQ, 4096, 4096, 6, procsQ)
	if err != nil {
		return err
	}
	t := stats.NewTable("Machine", "Processors", "Seconds/generation", "Efficiency (%)")
	for _, p := range pointsP {
		t.AddRow("BG/P", p.Processors, p.SecondsPerGeneration, p.EfficiencyPercent)
	}
	for _, p := range pointsQ {
		t.AddRow("BG/Q", p.Processors, p.SecondsPerGeneration, p.EfficiencyPercent)
	}
	fmt.Fprint(opts.out, t.String())
	fmt.Fprintln(opts.out, "paper: >=99% weak scaling efficiency to 294,912 BG/P processors and 16,384 BG/Q tasks")

	// Real weak scaling on goroutine ranks: constant SSets per rank.
	perRank := 8
	gens := 10
	rankCounts := []int{2, 4, 8}
	if opts.full {
		perRank, gens = 16, 20
		rankCounts = []int{2, 4, 8, 16}
	}
	fmt.Fprintf(opts.out, "\nreal goroutine-rank weak scaling (%d SSets per rank, memory-one, %d generations):\n", perRank, gens)
	walls, err := rankSweep(rankCounts, func(r int) evogame.ParallelConfig {
		cfg := parallelConfig(opts, r+1, perRank*r, 1, gens, 3)
		cfg.SkipFitnessWhenIdle = true
		return cfg
	})
	if err != nil {
		return err
	}
	rt := stats.NewTable("SSet ranks", "Total SSets", "Wallclock (s)", "Efficiency (%)")
	for i, r := range rankCounts {
		rt.AddRow(r, perRank*r, walls[i], stats.WeakEfficiency(walls[0], walls[i]))
	}
	fmt.Fprint(opts.out, rt.String())
	fmt.Fprintln(opts.out, "note: real weak scaling on a single host is limited by the physical core count; the")
	fmt.Fprintln(opts.out, "model rows above carry the Blue Gene extrapolation")
	return nil
}

// figure6b reports strong scaling (Figure 6b).
func figure6b(opts options) error {
	header(opts, "Figure 6(b) — strong scaling, 32,768 SSets, memory-six (model, Blue Gene/P)")
	procs := []int{1024, 2048, 8192, 16384, 262144}
	points, err := evogame.PredictStrongScaling(opts.scaling, 32768, 6, procs)
	if err != nil {
		return err
	}
	paper := map[int]float64{1024: 100, 2048: 99, 8192: 99, 16384: 99, 262144: 82}
	t := stats.NewTable("Processors", "Speedup", "Efficiency (%)", "Paper efficiency (%)")
	for _, p := range points {
		t.AddRow(p.Processors, p.Speedup, p.EfficiencyPercent, paper[p.Processors])
	}
	fmt.Fprint(opts.out, t.String())

	// Real strong scaling on goroutine ranks.
	ssets, gens := 64, 10
	if opts.full {
		ssets, gens = 128, 20
	}
	fmt.Fprintf(opts.out, "\nreal goroutine-rank strong scaling (%d SSets, memory-one, %d generations):\n", ssets, gens)
	return realStrongScaling(opts, ssets, gens, []int{1, 2, 4, 8})
}
