package cluster

import (
	"testing"
	"testing/quick"
)

func TestBlueGenePParameters(t *testing.T) {
	m := BlueGeneP()
	if cores := m.MaxNodes * m.CoresPerNode; cores != 294912 {
		t.Fatalf("BG/P cores = %d, want 294912 (the paper's full machine)", cores)
	}
	if m.CoresPerNode != 4 || m.Network.TorusDimensions != 3 {
		t.Fatalf("BG/P node/network shape wrong: %+v", m)
	}
	if m.MemoryPerNode != 2<<30 {
		t.Fatalf("BG/P memory per node = %d", m.MemoryPerNode)
	}
}

func TestBlueGeneQParameters(t *testing.T) {
	m := BlueGeneQ()
	if m.CoresPerNode != 16 || m.ThreadsPerCore != 4 {
		t.Fatalf("BG/Q cores/threads = %d/%d", m.CoresPerNode, m.ThreadsPerCore)
	}
	if m.MemoryPerNode != 16<<30 {
		t.Fatalf("BG/Q memory per node = %d", m.MemoryPerNode)
	}
	if m.Network.TorusDimensions != 5 {
		t.Fatalf("BG/Q torus dimensions = %d", m.Network.TorusDimensions)
	}
	// The paper's BG/Q runs use 512 nodes x 32 tasks = 16384 tasks; that must
	// be a valid placement.
	nodes, err := m.Nodes(16384, 32)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 512 {
		t.Fatalf("16384 tasks at 32 per node need %d nodes, want 512", nodes)
	}
}

func TestNodesValidation(t *testing.T) {
	m := BlueGeneP()
	if _, err := m.Nodes(0, 4); err == nil {
		t.Fatal("accepted zero tasks")
	}
	if _, err := m.Nodes(100, 0); err == nil {
		t.Fatal("accepted zero tasks per node")
	}
	if _, err := m.Nodes(100, 100); err == nil {
		t.Fatal("accepted more tasks per node than hardware threads")
	}
	if _, err := m.Nodes(10_000_000, 4); err == nil {
		t.Fatal("accepted more nodes than the machine has")
	}
	nodes, err := m.Nodes(294912, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nodes != 73728 {
		t.Fatalf("294912 tasks in virtual-node mode need %d nodes", nodes)
	}
}

func TestTorusDimsProduct(t *testing.T) {
	for _, tc := range []struct{ nodes, dims int }{
		{1, 3}, {8, 3}, {64, 3}, {512, 3}, {73728, 3}, {48, 5}, {1024, 5}, {49152, 5},
	} {
		dims := TorusDims(tc.nodes, tc.dims)
		if len(dims) != tc.dims {
			t.Fatalf("TorusDims(%d,%d) has %d entries", tc.nodes, tc.dims, len(dims))
		}
		product := 1
		for _, d := range dims {
			if d < 1 {
				t.Fatalf("TorusDims(%d,%d) contains %d", tc.nodes, tc.dims, d)
			}
			product *= d
		}
		if product != tc.nodes {
			t.Fatalf("TorusDims(%d,%d) = %v multiplies to %d", tc.nodes, tc.dims, dims, product)
		}
	}
	if TorusDims(0, 3) != nil || TorusDims(5, 0) != nil {
		t.Fatal("invalid inputs should return nil")
	}
}

func TestAverageHopsGrowsWithMachine(t *testing.T) {
	small := AverageHops(TorusDims(64, 3))
	large := AverageHops(TorusDims(73728, 3))
	if small <= 0 || large <= small {
		t.Fatalf("average hops: small=%v large=%v", small, large)
	}
	if AverageHops(TorusDims(1, 3)) != 0 {
		t.Fatal("a single node should have zero average hops")
	}
}

func TestPointToPointTimeMonotone(t *testing.T) {
	n := BlueGeneP().Network
	small := n.PointToPointTime(64, 8)
	large := n.PointToPointTime(73728, 8)
	if large <= small {
		t.Fatalf("p2p time should grow with machine size: %v vs %v", small, large)
	}
	tiny := n.PointToPointTime(64, 8)
	big := n.PointToPointTime(64, 1<<20)
	if big <= tiny {
		t.Fatalf("p2p time should grow with message size: %v vs %v", tiny, big)
	}
	if n.PointToPointTime(0, 8) <= 0 {
		t.Fatal("p2p time must stay positive for degenerate node counts")
	}
}

func TestBroadcastTimeScalesLogarithmically(t *testing.T) {
	n := BlueGeneQ().Network
	t1k := n.BroadcastTime(1024, 512)
	t64k := n.BroadcastTime(65536, 512)
	if t64k <= t1k {
		t.Fatal("broadcast time should grow with node count")
	}
	// Logarithmic growth: going from 2^10 to 2^16 nodes adds 6 stages, so
	// the increase must be far smaller than a linear 64x.
	if t64k > t1k*4 {
		t.Fatalf("broadcast cost grew more than expected for a tree network: %v -> %v", t1k, t64k)
	}
	if n.BroadcastTime(1, 0) <= 0 {
		t.Fatal("broadcast time must stay positive")
	}
	if n.ReduceTime(1024, 8) != n.BroadcastTime(1024, 8) {
		t.Fatal("reduce is modelled at broadcast cost")
	}
}

func TestMemoryFootprint(t *testing.T) {
	// 32 local SSets, 32,768 total, memory-six: 32 * 32768 * 512 B = 512 MiB.
	got := MemoryFootprint(32, 32768, 6)
	if got != 512<<20 {
		t.Fatalf("footprint = %d, want %d", got, 512<<20)
	}
	if MemoryFootprint(-1, 10, 1) != 0 || MemoryFootprint(10, -1, 1) != 0 {
		t.Fatal("negative inputs should give zero footprint")
	}
}

func TestStrongScalingMemoryLimitReproduced(t *testing.T) {
	// The paper: "The strong scaling tests were conducted with 32,768
	// strategies as that was the limit we could fit in memory for the small
	// scale run on 1024 processors of BG/P."  1,024 processors in
	// virtual-node mode means 4 tasks per node sharing 2 GB.
	m := BlueGeneP()
	if got := m.MaxTotalSSets(1024, 6, 4); got != 32768 {
		t.Fatalf("max population on 1024 BG/P tasks = %d SSets, want 32768", got)
	}
	if !m.FitsInMemory(32, 32768, 6, 4) {
		t.Fatal("32,768 SSets over 1,024 tasks should fit")
	}
	if m.FitsInMemory(64, 65536, 6, 4) {
		t.Fatal("65,536 SSets over 1,024 tasks should not fit")
	}
}

func TestMemorySixIsLargestDepth(t *testing.T) {
	// For the strong-scaling population, memory-six fits exactly and is the
	// maximum supported depth (the paper's claim in Sections I and V-C).
	m := BlueGeneP()
	if got := m.MaxMemorySteps(32, 32768, 4); got != 6 {
		t.Fatalf("max memory steps = %d, want 6", got)
	}
	// A Blue Gene/Q node has 8x the memory, so the same population fits
	// comfortably at 32 tasks per node too.
	q := BlueGeneQ()
	if got := q.MaxMemorySteps(2, 32768, 32); got != 6 {
		t.Fatalf("BG/Q max memory steps = %d, want 6", got)
	}
}

func TestMaxTotalSSetsEdgeCases(t *testing.T) {
	m := BlueGeneP()
	if m.MaxTotalSSets(0, 6, 4) != 0 {
		t.Fatal("zero tasks should give zero capacity")
	}
	// More tasks means more aggregate memory, so capacity must not shrink.
	small := m.MaxTotalSSets(1024, 6, 4)
	large := m.MaxTotalSSets(4096, 6, 4)
	if large < small {
		t.Fatalf("capacity shrank with more tasks: %d -> %d", small, large)
	}
	// Lower memory depth means smaller strategies, so capacity must not
	// shrink either.
	mem1 := m.MaxTotalSSets(1024, 1, 4)
	if mem1 < small {
		t.Fatalf("memory-one capacity %d smaller than memory-six %d", mem1, small)
	}
}

// Property: TorusDims always returns a factorisation whose product is the
// node count, for any positive inputs.
func TestQuickTorusDimsProduct(t *testing.T) {
	f := func(nodeSel uint16, dimSel uint8) bool {
		nodes := int(nodeSel%8192) + 1
		dims := int(dimSel%5) + 1
		out := TorusDims(nodes, dims)
		if len(out) != dims {
			return false
		}
		product := 1
		for _, d := range out {
			if d < 1 {
				return false
			}
			product *= d
		}
		return product == nodes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: communication time estimates are always positive and increase
// with payload size.
func TestQuickCommTimesPositive(t *testing.T) {
	n := BlueGeneP().Network
	f := func(nodeSel uint16, sizeSel uint16) bool {
		nodes := int(nodeSel) + 1
		bytes := int(sizeSel)
		return n.BroadcastTime(nodes, bytes) > 0 &&
			n.PointToPointTime(nodes, bytes) > 0 &&
			n.BroadcastTime(nodes, bytes+1024) >= n.BroadcastTime(nodes, bytes) &&
			n.PointToPointTime(nodes, bytes+1024) >= n.PointToPointTime(nodes, bytes)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTorusDims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = TorusDims(73728, 3)
	}
}
