package strategy

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
	"testing/quick"

	"evogame/internal/game"
	"evogame/internal/rng"
)

func TestNewPureIsAllCooperate(t *testing.T) {
	for mem := 1; mem <= 6; mem++ {
		p := NewPure(mem)
		if p.MemorySteps() != mem {
			t.Fatalf("MemorySteps = %d", p.MemorySteps())
		}
		if p.NumStates() != game.NumStates(mem) {
			t.Fatalf("NumStates = %d", p.NumStates())
		}
		if p.DefectionCount() != 0 {
			t.Fatalf("new memory-%d strategy defects in %d states", mem, p.DefectionCount())
		}
		if !p.Deterministic() {
			t.Fatal("pure strategy must be deterministic")
		}
	}
}

func TestPureSetMoveAndMove(t *testing.T) {
	p := NewPure(2)
	p.SetMove(5, game.Defect)
	p.SetMove(15, game.Defect)
	for s := 0; s < 16; s++ {
		want := game.Cooperate
		if s == 5 || s == 15 {
			want = game.Defect
		}
		if got := p.Move(s, nil); got != want {
			t.Fatalf("Move(%d) = %s, want %s", s, got, want)
		}
	}
	p.SetMove(5, game.Cooperate)
	if p.Move(5, nil) != game.Cooperate {
		t.Fatal("SetMove back to Cooperate failed")
	}
	if p.DefectionCount() != 1 {
		t.Fatalf("DefectionCount = %d, want 1", p.DefectionCount())
	}
}

func TestPureSetMovePanicsOutOfRange(t *testing.T) {
	for _, state := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetMove(%d) did not panic", state)
				}
			}()
			NewPure(1).SetMove(state, game.Defect)
		}()
	}
}

func TestFlipMove(t *testing.T) {
	p := NewPure(1)
	p.FlipMove(2)
	if p.Move(2, nil) != game.Defect {
		t.Fatal("FlipMove did not set defect")
	}
	p.FlipMove(2)
	if p.Move(2, nil) != game.Cooperate {
		t.Fatal("FlipMove did not restore cooperate")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FlipMove(-1) did not panic")
			}
		}()
		p.FlipMove(-1)
	}()
}

func TestParsePure(t *testing.T) {
	p := NewPure(1)
	p.SetMove(1, game.Defect)
	p.SetMove(2, game.Defect)
	if p.String() != "0110" {
		t.Fatalf("String = %q, want 0110", p.String())
	}
	q, err := ParsePure(1, "0110")
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(q) {
		t.Fatal("ParsePure(0110) differs from the move table C,D,D,C")
	}
	if _, err := ParsePure(1, "01"); err == nil {
		t.Fatal("ParsePure accepted a short string")
	}
	if _, err := ParsePure(1, "01x0"); err == nil {
		t.Fatal("ParsePure accepted an invalid character")
	}
}

func TestPureCloneIndependent(t *testing.T) {
	p := RandomPure(3, rng.New(1))
	c := p.Clone().(*Pure)
	if !p.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.FlipMove(10)
	if p.Equal(c) {
		t.Fatal("mutating the clone changed the original")
	}
}

func TestPureEqualDifferentTypes(t *testing.T) {
	p := NewPure(1)
	m := NewMixed(1)
	if p.Equal(m) {
		t.Fatal("a pure strategy reported equality with a mixed strategy")
	}
	if p.Equal(NewPure(2)) {
		t.Fatal("strategies with different memory reported equal")
	}
}

func TestRandomPureIsBalanced(t *testing.T) {
	p := RandomPure(6, rng.New(2))
	d := p.DefectionCount()
	if d < 1800 || d > 2300 {
		t.Fatalf("random memory-six strategy defects in %d/4096 states, expected ~2048", d)
	}
}

func TestRandomPureTailMasked(t *testing.T) {
	// memory-one uses only 4 bits of the first word; the rest must stay 0 so
	// Equal and Encode are canonical.
	p := RandomPure(1, rng.New(3))
	if p.Words()[0]>>4 != 0 {
		t.Fatalf("random memory-one strategy has bits beyond state 3: %x", p.Words()[0])
	}
}

func TestClassicsMemoryOneTables(t *testing.T) {
	// In the packed encoding (state = my<<1|opp for the most recent round):
	// state 0 = CC, 1 = CD, 2 = DC, 3 = DD.
	cases := []struct {
		name string
		p    *Pure
		want string
	}{
		{"AllC", AllC(1), "0000"},
		{"AllD", AllD(1), "1111"},
		{"TFT", TFT(1), "0101"},
		{"WSLS", WSLS(1), "0110"},
		{"GRIM", GRIM(1), "0101"}, // with one round of memory GRIM == TFT
		// States 0,1 have my-previous-move = C so Alternator defects; states
		// 2,3 have my-previous-move = D so it cooperates.
		{"Alternator", Alternator(1), "1100"},
	}
	for _, tc := range cases {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("%s memory-one = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestWSLSProperties(t *testing.T) {
	// WSLS must repeat its move after R or T and switch after S or P, for
	// every memory depth (only the most recent round matters).
	for mem := 1; mem <= 4; mem++ {
		w := WSLS(mem)
		for s := 0; s < w.NumStates(); s++ {
			my := game.Move((s >> 1) & 1)
			opp := game.Move(s & 1)
			got := w.Move(s, nil)
			if opp == game.Cooperate && got != my {
				t.Fatalf("memory-%d WSLS state %d: won but switched", mem, s)
			}
			if opp == game.Defect && got != my.Flip() {
				t.Fatalf("memory-%d WSLS state %d: lost but stayed", mem, s)
			}
		}
	}
}

func TestTFTProperties(t *testing.T) {
	for mem := 1; mem <= 4; mem++ {
		p := TFT(mem)
		for s := 0; s < p.NumStates(); s++ {
			if p.Move(s, nil) != game.Move(s&1) {
				t.Fatalf("memory-%d TFT state %d does not copy the opponent's last move", mem, s)
			}
		}
	}
}

func TestGRIMMemoryTwo(t *testing.T) {
	g := GRIM(2)
	for s := 0; s < 16; s++ {
		oppDefectedRecently := (s&1) == 1 || ((s>>2)&1) == 1
		want := game.Cooperate
		if oppDefectedRecently {
			want = game.Defect
		}
		if got := g.Move(s, nil); got != want {
			t.Fatalf("GRIM(2) state %d = %s, want %s", s, got, want)
		}
	}
}

func TestTF2T(t *testing.T) {
	if _, err := TF2T(1); err == nil {
		t.Fatal("TF2T(1) should fail")
	}
	p, err := TF2T(2)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 16; s++ {
		both := (s&1) == 1 && ((s>>2)&1) == 1
		want := game.Cooperate
		if both {
			want = game.Defect
		}
		if got := p.Move(s, nil); got != want {
			t.Fatalf("TF2T state %d = %s, want %s", s, got, want)
		}
	}
}

func TestGTFT(t *testing.T) {
	if _, err := GTFT(1, -0.1); err == nil {
		t.Fatal("GTFT accepted negative generosity")
	}
	if _, err := GTFT(1, 1.1); err == nil {
		t.Fatal("GTFT accepted generosity > 1")
	}
	g, err := GTFT(1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if g.probs[0] != 1 || g.probs[2] != 1 {
		t.Fatal("GTFT must always cooperate after opponent cooperation")
	}
	if g.probs[1] != 0.25 || g.probs[3] != 0.25 {
		t.Fatal("GTFT must forgive with the requested probability")
	}
	if g.Deterministic() {
		t.Fatal("GTFT is a mixed strategy")
	}
}

func TestMixedBasics(t *testing.T) {
	m := NewMixed(1)
	for s := 0; s < 4; s++ {
		if m.probs[s] != 0.5 {
			t.Fatalf("NewMixed prob(%d) = %v", s, m.probs[s])
		}
	}
	if len(m.probs) != 4 || m.MemorySteps() != 1 {
		t.Fatal("mixed dimensions wrong")
	}
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMixedFromProbsValidation(t *testing.T) {
	if _, err := MixedFromProbs(1, []float64{0.1, 0.2}); err == nil {
		t.Fatal("accepted wrong length")
	}
	if _, err := MixedFromProbs(1, []float64{0.1, 0.2, 0.3, 1.5}); err == nil {
		t.Fatal("accepted probability > 1")
	}
	m, err := MixedFromProbs(1, []float64{0, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.probs[2] != 0.75 {
		t.Fatal("probabilities not copied")
	}
}

func TestMixedCloneEqual(t *testing.T) {
	m := RandomMixed(2, rng.New(5))
	c := m.Clone().(*Mixed)
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.probs[3] = 0.123
	if m.Equal(c) && m.probs[3] != 0.123 {
		t.Fatal("clone shares storage with original")
	}
	if m.Equal(NewMixed(1)) {
		t.Fatal("mixed strategies of different memory reported equal")
	}
	if m.Equal(NewPure(2)) {
		t.Fatal("mixed strategy equal to pure strategy")
	}
}

func TestMixedMoveFrequencies(t *testing.T) {
	src := rng.New(6)
	m, _ := MixedFromProbs(1, []float64{1, 0, 0.5, 0.5})
	for i := 0; i < 100; i++ {
		if m.Move(0, src) != game.Cooperate {
			t.Fatal("prob-1 state produced a defection")
		}
		if m.Move(1, src) != game.Defect {
			t.Fatal("prob-0 state produced a cooperation")
		}
	}
	coop := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Move(2, src) == game.Cooperate {
			coop++
		}
	}
	frac := float64(coop) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("prob-0.5 state cooperated %v of the time", frac)
	}
}

func TestNumPureStrategies(t *testing.T) {
	// Table IV of the paper.
	want := map[int]int{1: 4, 2: 16, 3: 64, 4: 1024, 5: 2048, 6: 4096}
	// Note: the paper's Table IV lists 2^4, 2^16, 2^64, 2^1024, 2^2048,
	// 2^4096; the exponent is the number of states except for the rows where
	// the paper's own table is internally inconsistent with 4^n (memory 4
	// and 5).  We follow the 2^(4^n) definition from the text for the count
	// and expose the exponent separately.
	_ = want
	if NumPureStrategiesLog2(1) != 4 || NumPureStrategiesLog2(3) != 64 || NumPureStrategiesLog2(6) != 4096 {
		t.Fatal("NumPureStrategiesLog2 does not match 4^n")
	}
	if NumPureStrategies(1).Cmp(big.NewInt(16)) != 0 {
		t.Fatalf("NumPureStrategies(1) = %v, want 16", NumPureStrategies(1))
	}
	if NumPureStrategies(2).Cmp(new(big.Int).Lsh(big.NewInt(1), 16)) != 0 {
		t.Fatal("NumPureStrategies(2) != 2^16")
	}
	if NumPureStrategies(6).BitLen() != 4097 {
		t.Fatalf("NumPureStrategies(6) has bit length %d, want 4097 (== 2^4096)", NumPureStrategies(6).BitLen())
	}
}

func TestAllMemoryOne(t *testing.T) {
	all := AllMemoryOne()
	if len(all) != 16 {
		t.Fatalf("AllMemoryOne returned %d strategies, want 16", len(all))
	}
	seen := map[string]bool{}
	for _, p := range all {
		if p.MemorySteps() != 1 {
			t.Fatal("non memory-one strategy in AllMemoryOne")
		}
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate strategy %s", s)
		}
		seen[s] = true
	}
	if !seen["0110"] || !seen["0101"] || !seen["0000"] || !seen["1111"] {
		t.Fatal("AllMemoryOne is missing a classic strategy")
	}
}

func TestStrategyBytes(t *testing.T) {
	if StrategyBytes(1) != 8 {
		t.Fatalf("StrategyBytes(1) = %d, want 8", StrategyBytes(1))
	}
	if StrategyBytes(6) != 512 {
		t.Fatalf("StrategyBytes(6) = %d, want 512 (4096 bits)", StrategyBytes(6))
	}
}

func TestCatalogueAndByName(t *testing.T) {
	for _, n := range Catalogue() {
		mem := 2
		s, err := n.Build(mem)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if s.MemorySteps() != mem {
			t.Fatalf("%s built with memory %d", n.Name, s.MemorySteps())
		}
	}
	if _, err := ByName("wsls", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("ByName accepted an unknown name")
	}
}

func TestEncodeDecodePure(t *testing.T) {
	for mem := 1; mem <= 6; mem++ {
		p := RandomPure(mem, rng.New(uint64(mem)))
		buf, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != EncodedSize(mem) {
			t.Fatalf("memory-%d encoding is %d bytes, EncodedSize says %d", mem, len(buf), EncodedSize(mem))
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(got) {
			t.Fatalf("memory-%d pure strategy did not round-trip", mem)
		}
	}
}

func TestEncodeDecodeMixed(t *testing.T) {
	m := RandomMixed(2, rng.New(9))
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Fatal("mixed strategy did not round-trip")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	valid, _ := Encode(WSLS(1))
	cases := [][]byte{
		nil,
		{},
		{1, 1},
		append([]byte{9}, valid[1:]...),          // bad version
		append([]byte{1, 7}, valid[2:]...),       // bad kind
		append([]byte{1, 1, 9}, valid[3:]...),    // bad memory
		valid[:len(valid)-1],                     // truncated payload
		append(append([]byte{}, valid...), 0xFF), // oversized payload
	}
	for i, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("case %d: Decode accepted corrupt input", i)
		}
	}
	// Pure payload with bits beyond the state count.
	bad, _ := Encode(NewPure(1))
	bad[3+1] = 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted a pure payload with out-of-range bits")
	}
}

// TestAppendEncodeAndDecodeInto: AppendEncode appends exactly Encode's
// bytes behind dst's prefix, and DecodeInto overwrites a scratch strategy
// of the encoding's depth, rejecting another depth or kind and leaving the
// scratch unchanged when it does.
func TestAppendEncodeAndDecodeInto(t *testing.T) {
	for mem := 1; mem <= 6; mem++ {
		p := RandomPure(mem, rng.New(uint64(40+mem)))
		want, err := Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := AppendEncode([]byte{7, 7}, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf[:2], []byte{7, 7}) || !bytes.Equal(buf[2:], want) {
			t.Fatalf("memory-%d: AppendEncode gave %x, want 0707%x", mem, buf, want)
		}
		scratch := AllD(mem)
		if err := DecodeInto(scratch, want); err != nil {
			t.Fatal(err)
		}
		if !scratch.Equal(p) {
			t.Fatalf("memory-%d: DecodeInto did not round-trip", mem)
		}
	}

	scratch := WSLS(2)
	deeper, _ := Encode(WSLS(3))
	mixed, _ := Encode(RandomMixed(2, rng.New(3)))
	short, _ := Encode(AllC(2))
	bad, _ := Encode(NewPure(2))
	bad[3+2] = 0xFF
	for name, buf := range map[string][]byte{"another depth": deeper, "a mixed strategy": mixed, "out-of-range bits": bad, "a truncated payload": short[:len(short)-1]} {
		if err := DecodeInto(scratch, buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeInto returned %v, want ErrCorrupt", name, err)
		}
		if !scratch.Equal(WSLS(2)) {
			t.Fatalf("%s: a rejected encoding changed the scratch strategy", name)
		}
	}
	if _, err := AppendEncode(nil, nil); err == nil {
		t.Fatal("AppendEncode accepted nil")
	}
}

func TestEncodeUnknownTypeFails(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode accepted nil")
	}
}

// Property: Encode/Decode round-trips arbitrary random pure strategies.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed uint64, memSel uint8) bool {
		mem := int(memSel%6) + 1
		p := RandomPure(mem, rng.New(seed))
		buf, err := Encode(p)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		return err == nil && p.Equal(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ParsePure(String()) is the identity.
func TestQuickStringParseRoundTrip(t *testing.T) {
	f := func(seed uint64, memSel uint8) bool {
		mem := int(memSel%4) + 1
		p := RandomPure(mem, rng.New(seed))
		q, err := ParsePure(mem, p.String())
		return err == nil && p.Equal(q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomPureMemorySix(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = RandomPure(6, src)
	}
}

func BenchmarkEncodeDecodeMemorySix(b *testing.B) {
	p := RandomPure(6, rng.New(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := Encode(p)
		_, _ = Decode(buf)
	}
}

// TestPureStringAndDefectionCountMatchMoves holds the packed-word String
// rendering and the popcount DefectionCount to a per-state Move walk on
// random strategies at every memory depth the engines run.
func TestPureStringAndDefectionCountMatchMoves(t *testing.T) {
	src := rng.New(2013)
	for mem := 1; mem <= 6; mem++ {
		for trial := 0; trial < 20; trial++ {
			p := RandomPure(mem, src)
			want := make([]byte, p.NumStates())
			defects := 0
			for s := range want {
				want[s] = '0'
				if p.Move(s, nil) == game.Defect {
					want[s] = '1'
					defects++
				}
			}
			if got := p.String(); got != string(want) {
				t.Fatalf("memory-%d trial %d: String %q, want %q", mem, trial, got, want)
			}
			if got := p.DefectionCount(); got != defects {
				t.Fatalf("memory-%d trial %d: DefectionCount %d, want %d", mem, trial, got, defects)
			}
		}
	}
}
