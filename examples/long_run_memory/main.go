// Long-run memory: run the incr-comm-ckpt benchmark shape (5 ranks, S=64,
// memory six, mutation 0.2, EvalIncremental, 20 checkpoints) for a chosen
// number of generations and report the peak Go heap and the process's
// peak resident set.  With strategy IDs retired once no table holds them,
// both should follow the live population, not the length of the run.
//
//	go run ./examples/long_run_memory -generations 80000
//	go run ./examples/long_run_memory -generations 1280000
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"evogame"
)

func main() {
	generations := flag.Int("generations", 80000, "generations to simulate")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	dir, err := os.MkdirTemp("", "long-run-memory-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := evogame.ParallelConfig{
		Ranks:             5,
		WorkersPerRank:    1,
		OptimizationLevel: 3,
		NumSSets:          64,
		AgentsPerSSet:     4,
		MemorySteps:       6,
		Rounds:            evogame.DefaultRounds,
		PCRate:            1,
		MutationRate:      0.2,
		Beta:              1,
		Generations:       *generations,
		Seed:              *seed,
		EvalMode:          evogame.EvalIncremental,
		CheckpointPath:    filepath.Join(dir, "run.ckpt"),
		CheckpointEvery:   max(1, *generations/20),
	}

	// Sample the live heap objects every few milliseconds; the largest
	// sample is the peak heap.
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var most uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			most = max(most, s[0].Value.Uint64())
			select {
			case <-done:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	res, err := evogame.SimulateParallel(cfg)
	close(done)
	heap := <-peak
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d generations in %.1fs: %d mutations, %d games\n",
		res.Generations, res.WallClockSeconds, res.Mutations, res.TotalGames)
	fmt.Printf("peak heap %.1f MiB, max RSS %s\n", float64(heap)/(1<<20), peakRSS())
}

// peakRSS renders the process's peak resident set (VmHWM), where the
// system reports one.
func peakRSS() string {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "unavailable"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64); err == nil {
				return fmt.Sprintf("%.1f MiB", kib/1024)
			}
		}
	}
	return "unavailable"
}
