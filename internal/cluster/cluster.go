// Package cluster models the supercomputers the paper's experiments ran on —
// IBM Blue Gene/P and Blue Gene/Q — at the level of detail the performance
// model needs: node counts and core counts, memory per node, torus topology
// and link parameters for point-to-point traffic, and the dedicated
// collective network used for broadcasts.
//
// None of that hardware is available to this reproduction, so the machine
// models serve two purposes.  First, they let internal/perfmodel extrapolate
// measured per-game compute costs and per-message communication costs to the
// paper's processor counts (up to 294,912 cores) and regenerate the shape of
// the weak- and strong-scaling curves of Figure 6 and Table VI.  Second,
// they reproduce the paper's memory-capacity argument that memory-six is the
// largest strategy depth that fits in node memory (Section V-C).
package cluster

import (
	"fmt"
	"math"

	"evogame/internal/strategy"
)

// Network describes the communication fabric of a machine.
type Network struct {
	// PointToPointLatency is the zero-byte one-way latency of a
	// point-to-point message between neighbouring nodes.
	PointToPointLatency float64 // seconds
	// PerHopLatency is the additional latency per torus hop.
	PerHopLatency float64 // seconds
	// LinkBandwidth is the per-link bandwidth available to a point-to-point
	// message.
	LinkBandwidth float64 // bytes per second
	// CollectiveLatency is the base latency of an operation on the
	// collective network (broadcast / reduction tree).
	CollectiveLatency float64 // seconds
	// CollectivePerStage is the additional latency per tree stage
	// (log2 of the node count).
	CollectivePerStage float64 // seconds
	// CollectiveBandwidth is the payload bandwidth of the collective
	// network.
	CollectiveBandwidth float64 // bytes per second
	// TorusDimensions is the dimensionality of the torus (3 for Blue
	// Gene/P, 5 for Blue Gene/Q).
	TorusDimensions int
}

// Machine describes one supercomputer configuration.
type Machine struct {
	Name           string
	CoresPerNode   int
	ThreadsPerCore int
	MemoryPerNode  int64 // bytes
	MaxNodes       int
	// CoreGFlops is the nominal per-core peak in GFlop/s; only used for
	// descriptive output, never for time estimates.
	CoreGFlops float64
	Network    Network
}

// BlueGeneP returns the Blue Gene/P model used for the paper's large-scale
// runs: 72 racks, 73,728 nodes, 4 cores per node (294,912 cores), 2 GB per
// node (the Intrepid/JUGENE configuration), 3D torus at 425 MB/s per link
// and a dedicated collective network.
func BlueGeneP() Machine {
	return Machine{
		Name:           "BlueGene/P",
		CoresPerNode:   4,
		ThreadsPerCore: 1,
		MemoryPerNode:  2 << 30,
		MaxNodes:       73728,
		CoreGFlops:     3.4,
		Network: Network{
			PointToPointLatency: 3.0e-6,
			PerHopLatency:       0.1e-6,
			LinkBandwidth:       425e6,
			CollectiveLatency:   2.5e-6,
			CollectivePerStage:  0.1e-6,
			CollectiveBandwidth: 850e6,
			TorusDimensions:     3,
		},
	}
}

// BlueGeneQ returns the Blue Gene/Q model used for the paper's runs up to
// 16,384 tasks: 16 cores per node with 4 hardware threads each, 16 GB per
// node, 5D torus at 2 GB/s per link (32 GB/s aggregate per node as cited in
// the paper), 204.8 GFlop/s per node.
func BlueGeneQ() Machine {
	return Machine{
		Name:           "BlueGene/Q",
		CoresPerNode:   16,
		ThreadsPerCore: 4,
		MemoryPerNode:  16 << 30,
		MaxNodes:       1024 * 48, // up to 48 racks (Sequoia-class); the paper used up to 512 nodes
		CoreGFlops:     12.8,
		Network: Network{
			PointToPointLatency: 2.5e-6,
			PerHopLatency:       0.04e-6,
			LinkBandwidth:       2e9,
			CollectiveLatency:   2.0e-6,
			CollectivePerStage:  0.05e-6,
			CollectiveBandwidth: 4e9,
			TorusDimensions:     5,
		},
	}
}

// Nodes returns the number of nodes needed to host the given number of MPI
// tasks at tasksPerNode density, and an error if it exceeds the machine.
func (m Machine) Nodes(tasks, tasksPerNode int) (int, error) {
	if tasks <= 0 {
		return 0, fmt.Errorf("cluster: tasks must be positive, got %d", tasks)
	}
	if tasksPerNode <= 0 {
		return 0, fmt.Errorf("cluster: tasksPerNode must be positive, got %d", tasksPerNode)
	}
	maxTasksPerNode := m.CoresPerNode * m.ThreadsPerCore
	if tasksPerNode > maxTasksPerNode {
		return 0, fmt.Errorf("cluster: %d tasks per node exceeds %s's %d hardware threads",
			tasksPerNode, m.Name, maxTasksPerNode)
	}
	nodes := (tasks + tasksPerNode - 1) / tasksPerNode
	if nodes > m.MaxNodes {
		return 0, fmt.Errorf("cluster: %d nodes exceed %s's %d nodes", nodes, m.Name, m.MaxNodes)
	}
	return nodes, nil
}

// TorusDims returns a near-cubic factorisation of nodeCount into the
// machine's torus dimensionality; it is used to estimate hop counts.
func TorusDims(nodeCount, dims int) []int {
	if nodeCount < 1 || dims < 1 {
		return nil
	}
	out := make([]int, dims)
	for i := range out {
		out[i] = 1
	}
	remaining := nodeCount
	for i := 0; i < dims; i++ {
		// Ideal extent of the remaining dimensions.
		ideal := math.Pow(float64(remaining), 1/float64(dims-i))
		extent := int(math.Round(ideal))
		if extent < 1 {
			extent = 1
		}
		// Choose the divisor of remaining closest to the ideal extent so the
		// product always equals nodeCount.
		best := 1
		bestDelta := math.MaxFloat64
		for d := 1; d <= remaining; d++ {
			if remaining%d != 0 {
				continue
			}
			delta := math.Abs(float64(d) - float64(extent))
			if delta < bestDelta {
				best, bestDelta = d, delta
			}
		}
		out[i] = best
		remaining /= best
	}
	// Any residue goes into the last dimension (can only happen if nodeCount
	// had large prime factors, in which case the product is still exact).
	out[dims-1] *= remaining
	return out
}

// AverageHops returns the expected number of torus hops between two
// uniformly random nodes of a torus with the given extents (sum over
// dimensions of extent/4, the standard torus average distance).
func AverageHops(dims []int) float64 {
	total := 0.0
	for _, extent := range dims {
		if extent > 1 {
			total += float64(extent) / 4
		}
	}
	return total
}

// PointToPointTime estimates the time to deliver a point-to-point message of
// the given size between two random nodes of a partition with nodeCount
// nodes.
func (n Network) PointToPointTime(nodeCount int, bytes int) float64 {
	if nodeCount < 1 {
		nodeCount = 1
	}
	hops := AverageHops(TorusDims(nodeCount, n.TorusDimensions))
	return n.PointToPointLatency + hops*n.PerHopLatency + float64(bytes)/n.LinkBandwidth
}

// BroadcastTime estimates the time for a broadcast of the given payload from
// one rank to all tasks of a partition with nodeCount nodes, using the
// dedicated collective network (latency grows with the tree depth, i.e.
// logarithmically in the node count).
func (n Network) BroadcastTime(nodeCount int, bytes int) float64 {
	if nodeCount < 1 {
		nodeCount = 1
	}
	stages := math.Ceil(math.Log2(float64(nodeCount)))
	if stages < 1 {
		stages = 1
	}
	return n.CollectiveLatency + stages*n.CollectivePerStage + float64(bytes)/n.CollectiveBandwidth
}

// ReduceTime estimates the time for a reduction of a payload of the given
// size across a partition with nodeCount nodes; the collective network
// performs reductions at broadcast-like cost.
func (n Network) ReduceTime(nodeCount int, bytes int) float64 {
	return n.BroadcastTime(nodeCount, bytes)
}

// MemoryFootprint returns the per-task memory footprint, in bytes, of the
// strategy-space bookkeeping when the task hosts localSSets Strategy Sets
// out of a population of totalSSets, at the given memory depth.  Following
// Section V of the paper, memory "is used mainly to store the local view of
// the strategy space at each SSet": every locally hosted SSet keeps the
// strategies currently held by all SSets of the population, plus the global
// state table of the game kernel and per-SSet bookkeeping.
// The footprint counts only the dominant term — the strategy views — and
// ignores the kilobyte-scale state table and per-SSet bookkeeping, which are
// negligible at every population size of interest.
func MemoryFootprint(localSSets, totalSSets, memSteps int) int64 {
	if localSSets < 0 || totalSSets < 0 {
		return 0
	}
	perStrategy := int64(strategy.StrategyBytes(memSteps))
	return int64(localSSets) * int64(totalSSets) * perStrategy
}

// FitsInMemory reports whether hosting localSSets of a totalSSets population
// at the given memory depth fits in the machine's per-task memory when
// tasksPerNode tasks share a node's memory.
func (m Machine) FitsInMemory(localSSets, totalSSets, memSteps, tasksPerNode int) bool {
	if tasksPerNode < 1 {
		tasksPerNode = 1
	}
	perTaskBudget := m.MemoryPerNode / int64(tasksPerNode)
	return MemoryFootprint(localSSets, totalSSets, memSteps) <= perTaskBudget
}

// MaxMemorySteps returns the largest memory depth whose strategy-space
// bookkeeping fits in the per-task memory budget, or 0 if none fits.  For
// the paper's strong-scaling configuration (32 SSets per task out of 32,768
// on Blue Gene/P in virtual-node mode) this returns 6, reproducing the
// paper's observation that memory-six is the largest depth that can be
// modelled.
func (m Machine) MaxMemorySteps(localSSets, totalSSets, tasksPerNode int) int {
	best := 0
	for mem := 1; mem <= 6; mem++ {
		if m.FitsInMemory(localSSets, totalSSets, mem, tasksPerNode) {
			best = mem
		}
	}
	return best
}

// MaxTotalSSets returns the largest population (in SSets) that fits in
// memory when it is divided evenly across the given number of tasks, at the
// given memory depth and task density.  It reproduces the paper's statement
// that 32,768 strategies were the most that fit on 1,024 Blue Gene/P
// processors.  The search is over powers of two, matching how the paper
// sizes its populations.
func (m Machine) MaxTotalSSets(tasks, memSteps, tasksPerNode int) int {
	if tasks <= 0 {
		return 0
	}
	best := 0
	for total := 2; total <= 1<<30; total *= 2 {
		local := (total + tasks - 1) / tasks
		if local < 1 {
			local = 1
		}
		if m.FitsInMemory(local, total, memSteps, tasksPerNode) {
			best = total
		} else {
			break
		}
	}
	return best
}
