// Package perfmodel implements the analytic performance model that
// extrapolates the framework's measured costs to Blue Gene scale.
//
// The paper's scaling studies run on up to 294,912 Blue Gene/P cores; this
// reproduction can execute the real distributed engine only up to a few
// thousand goroutine ranks on one host.  The performance model bridges the
// gap: it combines (a) the per-round game-kernel cost measured on the real
// Go implementation (via Calibrate) with (b) the communication cost model of
// the target machine (internal/cluster) and (c) the algorithm's per-
// generation communication pattern (two broadcasts, two point-to-point
// fitness returns on learning generations, and a strategy-payload broadcast
// on update generations) to predict per-generation time, and from it the
// weak-scaling efficiency (Figure 6a), strong-scaling speedup and efficiency
// (Figure 6b and Figure 4), and the SSets-per-processor ratio table
// (Table VI).
//
// The model reproduces the *shape* of the paper's results — near-perfect
// weak scaling, strong scaling that holds through ~16K processors and dips
// when processors out-number SSets, and the efficiency cliff when the
// SSet/processor ratio drops below ~2 — not the absolute Blue Gene wall
// clock numbers.
package perfmodel

import (
	"fmt"
	"math"
	"time"

	"evogame/internal/cluster"
	"evogame/internal/game"
	"evogame/internal/rng"
	"evogame/internal/strategy"
)

// Calibration holds the measured single-core game-kernel costs.
type Calibration struct {
	// SecondsPerRound maps memory depth to the measured cost of one IPD
	// round (one state lookup, two strategy lookups, one payoff
	// accumulation) on the host CPU.
	SecondsPerRound map[int]float64
}

// DefaultCalibration returns representative single-core round costs for the
// optimized kernel, useful when deterministic model output is needed without
// running the measurement (tests, documentation).  Values are in seconds per
// round and grow mildly with memory depth, mirroring the paper's Figure 5
// observation that deeper memory costs more per round (state identification)
// even though the move itself is a table lookup.
func DefaultCalibration() Calibration {
	return Calibration{SecondsPerRound: map[int]float64{
		1: 9e-9,
		2: 10e-9,
		3: 11e-9,
		4: 13e-9,
		5: 16e-9,
		6: 20e-9,
	}}
}

// Calibrate measures the real per-round cost of the optimized game kernel
// for every memory depth by timing games between random pure strategies.
// gamesPerDepth controls how many games are timed per depth (more games,
// less noise).
func Calibrate(gamesPerDepth int) (Calibration, error) {
	if gamesPerDepth < 1 {
		gamesPerDepth = 1
	}
	cal := Calibration{SecondsPerRound: make(map[int]float64, game.MaxMemorySteps)}
	src := rng.New(0xCA11B8A7E)
	for mem := 1; mem <= game.MaxMemorySteps; mem++ {
		eng, err := game.NewEngine(game.EngineConfig{
			Rounds:      game.DefaultRounds,
			MemorySteps: mem,
			// The model prices per-round kernel work, so the calibration must
			// replay every round; the cycle-closing kernel would execute only
			// a fraction of them and understate SecondsPerRound.
			Kernel: game.KernelFullReplay,
		})
		if err != nil {
			return Calibration{}, err
		}
		players := make([]*strategy.Pure, 8)
		for i := range players {
			players[i] = strategy.RandomPure(mem, src)
		}
		start := time.Now()
		rounds := 0
		for g := 0; g < gamesPerDepth; g++ {
			a := players[g%len(players)]
			b := players[(g*3+1)%len(players)]
			if _, err := eng.Play(a, b, nil); err != nil {
				return Calibration{}, err
			}
			rounds += eng.Rounds()
		}
		elapsed := time.Since(start).Seconds()
		if rounds == 0 || elapsed <= 0 {
			return Calibration{}, fmt.Errorf("perfmodel: calibration produced no measurable work for memory-%d", mem)
		}
		cal.SecondsPerRound[mem] = elapsed / float64(rounds)
	}
	return cal, nil
}

// secondsPerRound returns the calibrated per-round cost for the memory
// depth, falling back to the default calibration when missing.
func (c Calibration) secondsPerRound(mem int) float64 {
	if v, ok := c.SecondsPerRound[mem]; ok && v > 0 {
		return v
	}
	return DefaultCalibration().SecondsPerRound[mem]
}

// Model predicts per-generation run time for a given machine.
type Model struct {
	// Machine is the target system (BlueGeneP(), BlueGeneQ(), or a custom
	// configuration).
	Machine cluster.Machine
	// Calibration supplies the measured game-kernel cost.
	Calibration Calibration
	// RoundsPerGame is the number of IPD rounds per game (paper: 200).
	RoundsPerGame int
	// PCRate is the pairwise-comparison rate (paper: 0.1); it determines how
	// often the fitness returns and strategy-update payloads are exchanged.
	PCRate float64
	// MutationRate is the mutation rate (paper: 0.05); it determines how
	// often a strategy payload rides on the update broadcast.
	MutationRate float64
	// TasksPerNode is the MPI task density (4 in virtual-node mode on Blue
	// Gene/P, 32 on Blue Gene/Q as in the paper's runs).
	TasksPerNode int
	// ThreadsPerTask is the number of worker threads per task sharing its
	// game play (the hybrid OpenMP tier); 1 for flat MPI.
	ThreadsPerTask int
	// SplitOverhead is the fractional compute overhead incurred when an SSet
	// must be split across processors (R < 1): duplicated opponent-view
	// bookkeeping plus the extra partial-fitness reduction.
	SplitOverhead float64
	// SyncFraction is the per-generation synchronisation overhead of the
	// population-dynamics phase, expressed as a fraction of one SSet's game
	// play: while the Nature Agent waits for the selected SSets' fitness and
	// broadcasts the update, ranks with no additional local SSet to compute
	// sit idle.  With two or more SSets per processor this wait is hidden
	// behind the game play of the next SSet; below that it is exposed, which
	// is the efficiency cliff of Table VI.
	SyncFraction float64
}

// NewModel returns a Model with the paper's standard parameters for the
// given machine and calibration.
func NewModel(m cluster.Machine, cal Calibration) *Model {
	tasksPerNode := m.CoresPerNode
	if m.Name == "BlueGene/Q" {
		tasksPerNode = 32
	}
	return &Model{
		Machine:        m,
		Calibration:    cal,
		RoundsPerGame:  game.DefaultRounds,
		PCRate:         0.1,
		MutationRate:   0.05,
		TasksPerNode:   tasksPerNode,
		ThreadsPerTask: 1,
		SplitOverhead:  0.25,
		SyncFraction:   0.8,
	}
}

// GenerationTime returns the predicted compute and communication seconds of
// one generation on procs processors for a population of totalSSets, where
// every SSet plays opponentsPerSSet games of roundsPerGame rounds.
func (m *Model) GenerationTime(totalSSets, opponentsPerSSet, procs, memSteps int) (compute, comm float64, err error) {
	if procs < 2 {
		return 0, 0, fmt.Errorf("perfmodel: need at least 2 processors (Nature + SSets), got %d", procs)
	}
	if totalSSets < 1 || opponentsPerSSet < 0 {
		return 0, 0, fmt.Errorf("perfmodel: invalid population (%d SSets, %d opponents)", totalSSets, opponentsPerSSet)
	}
	if memSteps < 1 || memSteps > game.MaxMemorySteps {
		return 0, 0, fmt.Errorf("perfmodel: memory steps %d out of range", memSteps)
	}
	// The Nature Agent shares rank 0's processor; its bookkeeping is
	// negligible next to the game play, so every processor is modelled as an
	// SSet processor.
	ssetRanks := procs
	nodes, err := m.Machine.Nodes(procs, m.TasksPerNode)
	if err != nil {
		return 0, 0, err
	}

	// Compute: the games of the most loaded rank.
	perRound := m.Calibration.secondsPerRound(memSteps)
	gameSeconds := float64(m.RoundsPerGame) * perRound
	localSSets := float64(totalSSets) / float64(ssetRanks)
	maxLocal := math.Ceil(localSSets)
	threads := float64(m.ThreadsPerTask)
	if threads < 1 {
		threads = 1
	}
	ratio := float64(totalSSets) / float64(ssetRanks)
	if ratio >= 1 {
		compute = maxLocal * float64(opponentsPerSSet) * gameSeconds / threads
	} else {
		// Processors out-number SSets: the games of each SSet are split
		// across ~1/ratio processors, at the cost of SplitOverhead extra
		// work (duplicated setup, partial-fitness combination).
		compute = ratio * float64(opponentsPerSSet) * gameSeconds * (1 + m.SplitOverhead) / threads
	}

	// Communication per generation (the pattern of Figure 1(b)):
	//   - one broadcast of the PC selection (9 bytes)
	//   - on PC generations, two point-to-point fitness returns and a
	//     strategy payload in the update broadcast
	//   - one broadcast of the update (1 byte empty, or the strategy payload)
	//   - on mutation generations, a strategy payload in the update broadcast
	//   - when an SSet spans processors, an extra reduction combines the
	//     partial fitness values.
	net := m.Machine.Network
	stratBytes := strategy.EncodedSize(memSteps)
	comm = net.BroadcastTime(nodes, 9)
	comm += net.BroadcastTime(nodes, 1)
	comm += m.PCRate * (2*net.PointToPointTime(nodes, 8) + net.BroadcastTime(nodes, stratBytes))
	comm += m.MutationRate * net.BroadcastTime(nodes, stratBytes)
	if ratio < 1 {
		comm += m.PCRate * net.ReduceTime(nodes, 8)
	}
	return compute, comm, nil
}

// ScalingPoint is one entry of a scaling curve.
type ScalingPoint struct {
	Processors int
	// SecondsPerGeneration is the predicted wall-clock time of one
	// generation (compute + communication of the critical path).
	SecondsPerGeneration float64
	ComputeSeconds       float64
	CommSeconds          float64
	// Speedup is relative to the first point of the sweep (strong scaling
	// only; 0 for weak scaling).
	Speedup float64
	// Efficiency is the parallel efficiency in percent relative to the first
	// point of the sweep.
	Efficiency float64
}

// StrongScaling predicts the strong-scaling curve for a fixed population of
// totalSSets (every SSet playing every other SSet, as in the paper's strong
// scaling runs) over the given processor counts.  The first processor count
// is the baseline.
func (m *Model) StrongScaling(totalSSets, memSteps int, procs []int) ([]ScalingPoint, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("perfmodel: empty processor list")
	}
	points := make([]ScalingPoint, 0, len(procs))
	var baseTime float64
	var baseProcs int
	for i, p := range procs {
		compute, comm, err := m.GenerationTime(totalSSets, totalSSets-1, p, memSteps)
		if err != nil {
			return nil, err
		}
		total := compute + comm
		pt := ScalingPoint{
			Processors:           p,
			SecondsPerGeneration: total,
			ComputeSeconds:       compute,
			CommSeconds:          comm,
		}
		// Speedup is normalised so the baseline point's speedup equals its
		// processor count, matching the paper's Figure 6(b) log-log axes
		// where the ideal line passes through (P, P).
		if i == 0 {
			baseTime, baseProcs = total, p
			pt.Speedup = float64(p)
			pt.Efficiency = 100
		} else {
			pt.Speedup = float64(baseProcs) * baseTime / total
			pt.Efficiency = 100 * baseTime * float64(baseProcs) / (total * float64(p))
		}
		points = append(points, pt)
	}
	return points, nil
}

// WeakScaling predicts the weak-scaling curve: every processor keeps
// ssetsPerProc SSets and the per-processor game workload is held constant at
// ssetsPerProc*opponentsPerSSet games per generation, as in the paper's weak
// scaling runs (4,096 SSets per processor).  Efficiency is relative to the
// first processor count.
func (m *Model) WeakScaling(ssetsPerProc, opponentsPerSSet, memSteps int, procs []int) ([]ScalingPoint, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("perfmodel: empty processor list")
	}
	if ssetsPerProc < 1 {
		return nil, fmt.Errorf("perfmodel: ssetsPerProc must be positive")
	}
	points := make([]ScalingPoint, 0, len(procs))
	var baseTime float64
	for i, p := range procs {
		totalSSets := ssetsPerProc * (p - 1)
		compute, comm, err := m.GenerationTime(totalSSets, opponentsPerSSet, p, memSteps)
		if err != nil {
			return nil, err
		}
		total := compute + comm
		pt := ScalingPoint{
			Processors:           p,
			SecondsPerGeneration: total,
			ComputeSeconds:       compute,
			CommSeconds:          comm,
		}
		if i == 0 {
			baseTime = total
			pt.Efficiency = 100
		} else {
			pt.Efficiency = 100 * baseTime / total
		}
		points = append(points, pt)
	}
	return points, nil
}

// RatioPoint is one row of the SSets-per-processor table (Table VI).
type RatioPoint struct {
	Ratio      float64
	Efficiency float64
}

// RatioTable predicts the parallel efficiency as a function of the
// SSet-to-processor ratio R, at a fixed per-SSet workload.  The model
// captures the two effects the paper describes: with R < 1 processors idle
// or share split SSets, and with R < 2 the per-generation global
// synchronisation can no longer be overlapped with the game play of another
// local SSet.
func (m *Model) RatioTable(ratios []float64, opponentsPerSSet, memSteps, procs int) ([]RatioPoint, error) {
	if procs < 2 {
		return nil, fmt.Errorf("perfmodel: need at least 2 processors")
	}
	if memSteps < 1 || memSteps > game.MaxMemorySteps {
		return nil, fmt.Errorf("perfmodel: memory steps %d out of range", memSteps)
	}
	if opponentsPerSSet < 0 {
		return nil, fmt.Errorf("perfmodel: opponentsPerSSet must be non-negative, got %d", opponentsPerSSet)
	}
	perRound := m.Calibration.secondsPerRound(memSteps)
	perSSet := float64(opponentsPerSSet) * float64(m.RoundsPerGame) * perRound
	nodes, err := m.Machine.Nodes(procs, m.TasksPerNode)
	if err != nil {
		return nil, err
	}
	net := m.Machine.Network
	stratBytes := strategy.EncodedSize(memSteps)
	commPerGen := net.BroadcastTime(nodes, 9) + net.BroadcastTime(nodes, 1) +
		m.PCRate*(2*net.PointToPointTime(nodes, 8)+net.BroadcastTime(nodes, stratBytes)) +
		m.MutationRate*net.BroadcastTime(nodes, stratBytes)

	out := make([]RatioPoint, 0, len(ratios))
	syncCost := m.SyncFraction * perSSet
	for _, r := range ratios {
		// Written so NaN, which fails every comparison, is rejected too; an
		// infinite ratio would make the efficiency Inf/Inf.
		if !(r > 0) || math.IsInf(r, 1) {
			return nil, fmt.Errorf("perfmodel: ratio must be positive and finite, got %v", r)
		}
		ideal := r * perSSet
		// Work is assigned in whole SSets, so the most loaded processor
		// carries ceil(R) of them...
		makespan := math.Ceil(r) * perSSet
		// ...and the population-dynamics synchronisation can be hidden
		// behind the game play of additional local SSets beyond the first.
		hidden := math.Max(0, (r-1)*perSSet)
		exposedComm := math.Max(0, syncCost+commPerGen-hidden)
		eff := 100 * ideal / (makespan + exposedComm)
		if eff > 100 {
			eff = 100
		}
		out = append(out, RatioPoint{Ratio: r, Efficiency: eff})
	}
	return out, nil
}

// MemorySweepPoint is one bar of the Figure 5 runtime breakdown.
type MemorySweepPoint struct {
	MemorySteps    int
	ComputeSeconds float64
	CommSeconds    float64
}

// MemorySweep predicts the per-run compute and communication seconds for
// memory depths 1..6 with the Figure 5 workload (a fixed population run for
// a fixed number of generations on a fixed processor count).
func (m *Model) MemorySweep(totalSSets, generations, procs int) ([]MemorySweepPoint, error) {
	out := make([]MemorySweepPoint, 0, game.MaxMemorySteps)
	for mem := 1; mem <= game.MaxMemorySteps; mem++ {
		compute, comm, err := m.GenerationTime(totalSSets, totalSSets-1, procs, mem)
		if err != nil {
			return nil, err
		}
		out = append(out, MemorySweepPoint{
			MemorySteps:    mem,
			ComputeSeconds: compute * float64(generations),
			CommSeconds:    comm * float64(generations),
		})
	}
	return out, nil
}
