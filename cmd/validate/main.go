// Command validate reproduces the paper's validation study (Figure 2): a
// population of Strategy Sets with random memory-one strategies evolves
// under pairwise-comparison learning and mutation, and the final population
// is clustered with Lloyd k-means.  The paper reports that 85% of SSets
// adopt Win-Stay Lose-Shift ([0101] in the paper's state ordering, "0110" in
// this library's canonical ordering) after 10^7 generations of a 5,000-SSet
// population; this command runs a configurable, scaled-down version of the
// same experiment and reports the measured WSLS share.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"evogame"

	"evogame/internal/stats"
)

func main() {
	var (
		ssets       = flag.Int("ssets", 200, "number of Strategy Sets (paper: 5000)")
		agents      = flag.Int("agents", 4, "agents per Strategy Set (paper: 4; must be >= 1; read by no engine, so it changes no result)")
		generations = flag.Int("generations", 100000, "generations to simulate (paper: 10^7)")
		noise       = flag.Float64("noise", 0.05, "per-move error probability")
		pcRate      = flag.Float64("pc-rate", 1.0, "pairwise comparison rate (raised from the paper's 0.1 so shorter runs reach fixation)")
		muRate      = flag.Float64("mutation-rate", 0.05, "mutation rate")
		beta        = flag.Float64("beta", 1.0, "Fermi selection intensity")
		seed        = flag.Uint64("seed", 1993, "random seed")
		k           = flag.Int("k", 4, "k-means cluster count for the final population")
	)
	flag.Parse()

	cfg := evogame.SimulationConfig{
		NumSSets:      *ssets,
		AgentsPerSSet: *agents,
		MemorySteps:   1,
		Rounds:        evogame.DefaultRounds,
		Noise:         *noise,
		PCRate:        *pcRate,
		MutationRate:  *muRate,
		Beta:          *beta,
		Generations:   *generations,
		Seed:          *seed,
		SampleEvery:   *generations / 20,
	}

	fmt.Printf("validation run: %d SSets x %d agents, memory-one, %d generations, noise %.2f\n",
		cfg.NumSSets, cfg.AgentsPerSSet, cfg.Generations, cfg.Noise)
	//lint:allow randsource wall-clock elapsed time for the validation report; never feeds simulation state
	start := time.Now()
	res, err := evogame.Simulate(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
	fmt.Printf("completed in %.1fs (%d games, %d adoptions, %d mutations)\n",
		time.Since(start).Seconds(), res.GamesPlayed, res.Adoptions, res.Mutations)

	t := stats.NewTable("Generation", "Distinct", "Top strategy", "Top %", "WSLS %", "TFT %", "ALLD %")
	for _, s := range res.Samples {
		t.AddRow(s.Generation, s.DistinctStrategies, s.TopStrategy,
			100*s.TopFraction, 100*s.WSLSFraction, 100*s.TFTFraction, 100*s.AllDFraction)
	}
	fmt.Print(t.String())

	clusters, err := evogame.ClusterStrategies(res.FinalStrategies, *k, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "validate:", err)
		os.Exit(1)
	}
	fmt.Printf("\nLloyd k-means clustering of the final population (k=%d):\n", *k)
	ct := stats.NewTable("Cluster", "Size", "Fraction", "Representative strategy")
	for i, c := range clusters {
		ct.AddRow(i, c.Size, c.Fraction, c.Representative)
	}
	fmt.Print(ct.String())

	wsls, _ := evogame.NamedStrategy("wsls", 1)
	fmt.Printf("\ncanonical WSLS move table: %s\n", wsls)
	fmt.Printf("paper: 85%% of SSets hold WSLS after 10^7 generations; this run: %.1f%%\n", 100*res.WSLSFraction())
}
