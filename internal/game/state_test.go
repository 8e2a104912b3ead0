package game

import (
	"testing"
	"testing/quick"

	"evogame/internal/rng"
)

func TestNumStates(t *testing.T) {
	want := map[int]int{1: 4, 2: 16, 3: 64, 4: 256, 5: 1024, 6: 4096}
	for mem, n := range want {
		if got := NumStates(mem); got != n {
			t.Errorf("NumStates(%d) = %d, want %d", mem, got, n)
		}
	}
}

func TestNumStatesPanicsOutOfRange(t *testing.T) {
	for _, mem := range []int{0, -1, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NumStates(%d) did not panic", mem)
				}
			}()
			NumStates(mem)
		}()
	}
}

func TestRoundCode(t *testing.T) {
	cases := []struct {
		my, opp Move
		want    int
	}{
		{Cooperate, Cooperate, 0},
		{Cooperate, Defect, 1},
		{Defect, Cooperate, 2},
		{Defect, Defect, 3},
	}
	for _, tc := range cases {
		if got := RoundCode(tc.my, tc.opp); got != tc.want {
			t.Errorf("RoundCode(%s,%s) = %d, want %d", tc.my, tc.opp, got, tc.want)
		}
	}
}

// packedView returns the explicit view (most recent round first) of the
// packed state code s.
func packedView(s, mem int) []uint8 {
	view := make([]uint8, mem)
	for r := range view {
		view[r] = uint8(s >> (2 * uint(r)) & 3)
	}
	return view
}

func TestStateTableMemoryOne(t *testing.T) {
	// Table II of the paper: memory-one has exactly 4 states covering CC,
	// CD, DC, DD.
	tab := NewStateTable(1)
	for i := 0; i < 4; i++ {
		if got := tab.FindState([]uint8{uint8(i)}); got != i {
			t.Errorf("FindState(single code %d) = %d", i, got)
		}
	}
	if got := tab.FindState([]uint8{4}); got != -1 {
		t.Errorf("FindState found a fifth memory-one state at %d", got)
	}
}

func TestStateTableRowsMatchPackedCodes(t *testing.T) {
	// The row FindState returns for a view pushed round by round is the
	// rolling code of the same rounds.
	src := rng.New(42)
	for mem := 1; mem <= 4; mem++ {
		tab := NewStateTable(mem)
		view := make([]uint8, mem)
		s := InitialState
		for step := 0; step < 200; step++ {
			if got := tab.FindState(view); got != s {
				t.Fatalf("memory-%d step %d: FindState=%d rolling=%d", mem, step, got, s)
			}
			my, opp := Move(src.Intn(2)), Move(src.Intn(2))
			copy(view[1:], view[:mem-1])
			view[0] = uint8(RoundCode(my, opp))
			s = push(s, mem, my, opp)
		}
	}
}

func TestFindStateFindsEveryRow(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		tab := NewStateTable(mem)
		for i := 0; i < NumStates(mem); i++ {
			if got := tab.FindState(packedView(i, mem)); got != i {
				t.Fatalf("memory-%d: the view of packed state %d is row %d", mem, i, got)
			}
		}
	}
}

func TestFindStateBadViewLength(t *testing.T) {
	tab := NewStateTable(2)
	if got := tab.FindState([]uint8{0}); got != -1 {
		t.Fatalf("FindState with wrong view length returned %d, want -1", got)
	}
}

func TestStateViaModesAgree(t *testing.T) {
	// Identifying each round's state by FindState over the explicit view
	// (StateLinearSearch) or by the rolling code (StateRolling) plays the
	// same noisy game: same Result, same draws from the source.
	src := rng.New(42)
	for mem := 1; mem <= 4; mem++ {
		a, b := randomWordPlayer(mem, src), randomWordPlayer(mem, src)
		base := EngineConfig{Rounds: 200, MemorySteps: mem, Noise: 0.05}
		linearCfg, rollingCfg := base, base
		linearCfg.StateMode, rollingCfg.StateMode = StateLinearSearch, StateRolling
		linear, rolling := mustEngine(t, linearCfg), mustEngine(t, rollingCfg)
		linearSrc, rollingSrc := rng.New(uint64(mem)), rng.New(uint64(mem))
		r1, err := linear.Play(a, b, linearSrc)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := rolling.Play(a, b, rollingSrc)
		if err != nil {
			t.Fatal(err)
		}
		if r1 != r2 || linearSrc.State() != rollingSrc.State() {
			t.Fatalf("memory-%d: linear=%+v rolling=%+v (sources agree: %v)",
				mem, r1, r2, linearSrc.State() == rollingSrc.State())
		}
	}
}

func TestOpponentState(t *testing.T) {
	// Memory-one: my=D, opp=C (code 2) becomes my=C, opp=D (code 1) for the
	// opponent.
	if got := OpponentState(2, 1); got != 1 {
		t.Fatalf("OpponentState(2,1) = %d, want 1", got)
	}
	// Symmetric codes are fixed points.
	if got := OpponentState(0, 1); got != 0 {
		t.Fatalf("OpponentState(0,1) = %d, want 0", got)
	}
	if got := OpponentState(3, 1); got != 3 {
		t.Fatalf("OpponentState(3,1) = %d, want 3", got)
	}
}

func TestOpponentStateInvolution(t *testing.T) {
	for mem := 1; mem <= 3; mem++ {
		for s := 0; s < NumStates(mem); s++ {
			if got := OpponentState(OpponentState(s, mem), mem); got != s {
				t.Fatalf("memory-%d: OpponentState is not an involution at state %d", mem, s)
			}
		}
	}
}

func TestHistoriesStayMirrored(t *testing.T) {
	// If A's state is pushed with (a,b) and B's with (b,a) every round,
	// then B's state must always equal OpponentState(A's state).
	src := rng.New(7)
	for mem := 1; mem <= 4; mem++ {
		sA, sB := InitialState, InitialState
		for step := 0; step < 100; step++ {
			if sB != OpponentState(sA, mem) {
				t.Fatalf("memory-%d step %d: views not mirrored", mem, step)
			}
			a, b := Move(src.Intn(2)), Move(src.Intn(2))
			sA, sB = push(sA, mem, a, b), push(sB, mem, b, a)
		}
	}
}

func TestStateString(t *testing.T) {
	// Memory-two state 13 = rounds [1,3]: older round DD then most recent CD.
	if got := StateString(13, 2); got != "DD|CD" {
		t.Fatalf("StateString(13,2) = %q, want \"DD|CD\"", got)
	}
	if got := StateString(0, 1); got != "CC" {
		t.Fatalf("StateString(0,1) = %q, want \"CC\"", got)
	}
}

func TestStateModeAccumModeStrings(t *testing.T) {
	if StateLinearSearch.String() != "linear-search" || StateRolling.String() != "rolling" {
		t.Fatal("StateMode.String incorrect")
	}
	if StateMode(99).String() == "" {
		t.Fatal("unknown StateMode should still render")
	}
	if AccumBranching.String() != "branching" || AccumLookup.String() != "lookup" {
		t.Fatal("AccumMode.String incorrect")
	}
	if AccumMode(99).String() == "" {
		t.Fatal("unknown AccumMode should still render")
	}
}

// Property: for any random play sequence the rolling state always equals the
// linear-search state (the optimization of Figure 3 does not change results).
func TestQuickRollingEqualsLinear(t *testing.T) {
	tables := map[int]*StateTable{}
	for mem := 1; mem <= 4; mem++ {
		tables[mem] = NewStateTable(mem)
	}
	f := func(seed uint64, memSel uint8, steps uint8) bool {
		mem := int(memSel%4) + 1
		src := rng.New(seed)
		view := make([]uint8, mem)
		s := InitialState
		for i := 0; i < int(steps); i++ {
			my, opp := Move(src.Intn(2)), Move(src.Intn(2))
			copy(view[1:], view[:mem-1])
			view[0] = uint8(RoundCode(my, opp))
			s = push(s, mem, my, opp)
			if s != tables[mem].FindState(view) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: OpponentState is an involution and preserves the state range.
func TestQuickOpponentStateInvolution(t *testing.T) {
	f := func(stateSel uint16, memSel uint8) bool {
		mem := int(memSel%MaxMemorySteps) + 1
		s := int(stateSel) % NumStates(mem)
		o := OpponentState(s, mem)
		return o >= 0 && o < NumStates(mem) && OpponentState(o, mem) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFindStateLinearMemorySix(b *testing.B) {
	tab := NewStateTable(6)
	view := packedView(push(push(InitialState, 6, Defect, Cooperate), 6, Cooperate, Defect), 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tab.FindState(view)
	}
}

// TestAblationVariantsAgree compares the production kernel (the zero
// EngineConfig modes) with every (StateMode, AccumMode, Kernel) combination
// a parallel.OptLevel maps to.  Each game must give the same Result bit for
// bit and leave its source in the same state, so the Figure 3 ablation
// changes speed only.
func TestAblationVariantsAgree(t *testing.T) {
	variants := []EngineConfig{
		// OptOriginal and OptNonBlockingComm.
		{StateMode: StateLinearSearch, AccumMode: AccumBranching, Kernel: KernelFullReplay},
		// OptStateLookup, under each requested kernel.
		{AccumMode: AccumBranching},
		{AccumMode: AccumBranching, Kernel: KernelFullReplay},
		{AccumMode: AccumBranching, Kernel: KernelBatch},
		// OptFusedFitness under the kernels other than the zero one.
		{Kernel: KernelFullReplay},
		{Kernel: KernelBatch},
	}
	payoffs := []Matrix{Standard(), {Reward: 3.3, Sucker: 0.1, Temptation: 4.7, Punishment: 1.2}}
	src := rng.New(2013)
	for mem := 1; mem <= 3; mem++ {
		a, b := randomWordPlayer(mem, src), randomWordPlayer(mem, src)
		pairs := [][2]Player{{a, b}, {a, a}, {b, a}}
		for _, payoff := range payoffs {
			for _, noise := range []float64{0, 0.05} {
				base := EngineConfig{Payoff: payoff, Rounds: DefaultRounds, MemorySteps: mem, Noise: noise}
				prod := mustEngine(t, base)
				for _, v := range variants {
					cfg := base
					cfg.StateMode, cfg.AccumMode, cfg.Kernel = v.StateMode, v.AccumMode, v.Kernel
					eng := mustEngine(t, cfg)
					for i, pair := range pairs {
						wantSrc, gotSrc := rng.New(uint64(100+i)), rng.New(uint64(100+i))
						want, err := prod.Play(pair[0], pair[1], wantSrc)
						if err != nil {
							t.Fatal(err)
						}
						got, err := eng.Play(pair[0], pair[1], gotSrc)
						if err != nil {
							t.Fatal(err)
						}
						if got != want || gotSrc.State() != wantSrc.State() {
							t.Errorf("memory-%d payoff %+v noise %v %v/%v/%v pair %d: %+v, production %+v (sources agree: %v)",
								mem, payoff, noise, v.StateMode, v.AccumMode, v.Kernel, i, got, want, gotSrc.State() == wantSrc.State())
						}
					}
				}
			}
		}
	}
}
