package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(12345)
	b := New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from the same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds agree on %d/100 outputs", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(42)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnUniformity(t *testing.T) {
	s := New(8)
	const buckets = 10
	const draws = 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d has %d draws, want ~%.0f", b, c, want)
		}
	}
}

func TestBoolProbabilities(t *testing.T) {
	s := New(5)
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	if s.Bool(-0.5) {
		t.Fatal("Bool(-0.5) returned true")
	}
	if !s.Bool(1.5) {
		t.Fatal("Bool(1.5) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.02 {
		t.Fatalf("Bool(0.3) hit fraction %v, want ~0.3", frac)
	}
}

func TestCoinBalance(t *testing.T) {
	s := New(11)
	const n = 100000
	heads := 0
	for i := 0; i < n; i++ {
		if s.Coin() {
			heads++
		}
	}
	frac := float64(heads) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("Coin fraction %v, want ~0.5", frac)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1234)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams agree on %d/1000 outputs", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	p1 := New(77)
	p2 := New(77)
	c1 := p1.Split()
	c2 := p2.Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children from identical parents diverged at %d", i)
		}
	}
}

func TestSplitN(t *testing.T) {
	parent := New(55)
	kids := parent.SplitN(8)
	if len(kids) != 8 {
		t.Fatalf("SplitN(8) returned %d children", len(kids))
	}
	// All children should produce distinct first outputs.
	seen := map[uint64]bool{}
	for _, k := range kids {
		v := k.Uint64()
		if seen[v] {
			t.Fatalf("two children produced identical first output %d", v)
		}
		seen[v] = true
	}
}

func TestPerm(t *testing.T) {
	s := New(2)
	for _, n := range []int{0, 1, 5, 64} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Shuffle(-1) did not panic")
		}
	}()
	New(1).Shuffle(-1, func(i, j int) {})
}

func TestPair(t *testing.T) {
	s := New(9)
	if _, _, err := s.Pair(1); err == nil {
		t.Fatal("Pair(1) should error")
	}
	for i := 0; i < 10000; i++ {
		a, b, err := s.Pair(10)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("Pair returned identical indices %d", a)
		}
		if a < 0 || a >= 10 || b < 0 || b >= 10 {
			t.Fatalf("Pair returned out-of-range indices %d, %d", a, b)
		}
	}
}

func TestPairCoversAllPairs(t *testing.T) {
	s := New(10)
	seen := map[[2]int]bool{}
	for i := 0; i < 20000; i++ {
		a, b, _ := s.Pair(4)
		seen[[2]int{a, b}] = true
	}
	// 4*3 ordered distinct pairs.
	if len(seen) != 12 {
		t.Fatalf("Pair(4) covered %d ordered pairs, want 12", len(seen))
	}
}

func TestStateRoundTrip(t *testing.T) {
	s := New(31)
	s.Uint64()
	s.Uint64()
	saved := s.State()
	want := make([]uint64, 10)
	for i := range want {
		want[i] = s.Uint64()
	}
	var restored Source
	if err := restored.SetState(saved); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := restored.Uint64(); got != want[i] {
			t.Fatalf("restored stream output %d = %d, want %d", i, got, want[i])
		}
	}
}

func TestSetStateRejectsZero(t *testing.T) {
	var s Source
	if err := s.SetState([4]uint64{}); err == nil {
		t.Fatal("SetState accepted the all-zero state")
	}
}

func TestFillUint64(t *testing.T) {
	s := New(13)
	buf := make([]uint64, 64)
	s.FillUint64(buf)
	zero := 0
	for _, v := range buf {
		if v == 0 {
			zero++
		}
	}
	if zero > 1 {
		t.Fatalf("FillUint64 produced %d zero words out of 64", zero)
	}
}

// Property: Intn(n) always lies in [0, n) for any positive n and any seed.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical streams (determinism for any seed).
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pair never returns equal indices.
func TestQuickPairDistinct(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 2
		s := New(seed)
		a, b, err := s.Pair(bound)
		return err == nil && a != b && a >= 0 && a < bound && b >= 0 && b < bound
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(4096)
	}
}

func TestBoolThresholdBoundaries(t *testing.T) {
	const ulp53 = 1.0 / (1 << 53)
	ps := []float64{
		math.SmallestNonzeroFloat64,
		ulp53,
		0.05,
		0.5,
		1 - ulp53,
	}
	for _, k := range []float64{1, 2, 3, 12345, 1 << 40, 1<<52 + 1, 1<<53 - 2} {
		p := k * ulp53
		ps = append(ps, math.Nextafter(p, 0), p, math.Nextafter(p, 1))
	}
	for _, p := range ps {
		th := BoolThreshold(p)
		if th < 1 || th >= thresholdAlways {
			t.Fatalf("BoolThreshold(%v) = %d, outside [1, 2^53)", p, th)
		}
		for _, k := range []uint64{th - 1, th, th + 1} {
			if k >= 1<<53 {
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				x := k<<11 | low
				got := x>>11 < th
				want := float64(x>>11)/(1<<53) < p
				if got != want {
					t.Errorf("p=%v (t=%d), x=%#x: threshold says %v, Float64 says %v", p, th, x, got, want)
				}
			}
		}
	}
	for _, p := range []float64{0, -0.5, math.Inf(-1), math.NaN()} {
		if th := BoolThreshold(p); th != 0 {
			t.Errorf("BoolThreshold(%v) = %d, want 0", p, th)
		}
	}
	for _, p := range []float64{1, 1.5, math.Inf(1)} {
		if th := BoolThreshold(p); th != thresholdAlways {
			t.Errorf("BoolThreshold(%v) = %d, want thresholdAlways", p, th)
		}
	}
}

// FuzzBoolThreshold checks the threshold equivalence for arbitrary p and
// draw x, and that BoolT consumes a source exactly as Bool does (including
// the draw-free p <= 0 and p >= 1 cases).
func FuzzBoolThreshold(f *testing.F) {
	f.Add(math.Float64bits(0.05), uint64(0))
	f.Add(math.Float64bits(0.05), uint64(0xCCCCCCCCCCCCC800))
	f.Add(math.Float64bits(0.5), uint64(1)<<63)
	f.Add(math.Float64bits(math.SmallestNonzeroFloat64), uint64(0x7ff))
	f.Add(math.Float64bits(1-1.0/(1<<53)), ^uint64(0))
	f.Add(math.Float64bits(1), uint64(42))
	f.Add(math.Float64bits(-0.25), uint64(42))
	f.Fuzz(func(t *testing.T, pBits, x uint64) {
		p := math.Float64frombits(pBits)
		if math.IsNaN(p) {
			t.Skip("NaN is rejected by every caller")
		}
		th := BoolThreshold(p)
		if p > 0 && p < 1 {
			got := x>>11 < th
			want := float64(x>>11)/(1<<53) < p
			if got != want {
				t.Fatalf("p=%v (t=%d), x=%#x: threshold says %v, Float64 says %v", p, th, x, got, want)
			}
		}
		a, b := New(x), New(x)
		for i := 0; i < 8; i++ {
			if got, want := b.BoolT(th), a.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: BoolT %v, Bool %v", p, i, got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v: BoolT left the source at a different state than Bool", p)
		}
	})
}

// TestFlipPairsMatchesBool holds the bulk draw to 2·rounds scalar Bool
// calls: same masks (first draw of a round in a, second in b), same
// post-draw state, and no other bit of the mask words disturbed.
func TestFlipPairsMatchesBool(t *testing.T) {
	const lane = 37
	const other = uint64(1)<<5 | uint64(1)<<63
	for _, p := range []float64{0.05, 0.5, 0, 1} {
		for _, rounds := range []int{0, 1, 199, 200, 1000} {
			ref, bulk := New(uint64(rounds)+2013), New(uint64(rounds)+2013)
			wantA := make([]uint64, rounds)
			wantB := make([]uint64, rounds)
			for r := 0; r < rounds; r++ {
				wantA[r], wantB[r] = other, other
				if ref.Bool(p) {
					wantA[r] |= 1 << lane
				}
				if ref.Bool(p) {
					wantB[r] |= 1 << lane
				}
			}
			a := make([]uint64, rounds)
			b := make([]uint64, rounds)
			for r := range a {
				a[r], b[r] = other, other
			}
			bulk.FlipPairs(BoolThreshold(p), lane, a, b)
			for r := 0; r < rounds; r++ {
				if a[r] != wantA[r] || b[r] != wantB[r] {
					t.Fatalf("p=%v rounds=%d: round %d masks (%#x, %#x), want (%#x, %#x)",
						p, rounds, r, a[r], b[r], wantA[r], wantB[r])
				}
			}
			if bulk.State() != ref.State() {
				t.Fatalf("p=%v rounds=%d: post-draw state differs from 2·rounds Bool calls", p, rounds)
			}
		}
	}
}

// TestSplitIntoMatchesSplit: the value-type split yields the same child
// stream as Split and advances the parent identically.
func TestSplitIntoMatchesSplit(t *testing.T) {
	p1, p2 := New(55), New(55)
	var child Source
	for i := 0; i < 4; i++ {
		want := p1.Split()
		p2.SplitInto(&child)
		if child.State() != want.State() {
			t.Fatalf("split %d: SplitInto child state differs from Split's", i)
		}
		if p1.State() != p2.State() {
			t.Fatalf("split %d: parents diverged", i)
		}
	}
	for i := 0; i < 100; i++ {
		if a, b := p1.Uint64(), p2.Uint64(); a != b {
			t.Fatalf("parent streams diverged at draw %d after the splits", i)
		}
	}
}

func BenchmarkBool(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Bool(0.05)
	}
}

// BenchmarkFlipPairs times one lane of a 200-round noisy game's flip
// pre-draw at the paper's noise level (400 draws per op).
func BenchmarkFlipPairs(b *testing.B) {
	s := New(1)
	th := BoolThreshold(0.05)
	a := make([]uint64, 200)
	c := make([]uint64, 200)
	for i := 0; i < b.N; i++ {
		s.FlipPairs(th, uint(i)&63, a, c)
	}
}

func BenchmarkSplitInto(b *testing.B) {
	s := New(1)
	var child Source
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.SplitInto(&child)
	}
}
