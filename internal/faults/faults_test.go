package faults

import (
	"errors"
	"testing"
	"time"
)

// planEvents returns the plan's schedule with the original counts.
func planEvents(p *Plan) []Event {
	out := make([]Event, len(p.events))
	for i, ev := range p.events {
		out[i] = ev.Event
	}
	return out
}

func TestParseGrammar(t *testing.T) {
	cases := []struct {
		spec string
		want []Event
	}{
		{"crash@40:r1", []Event{{Kind: Crash, Gen: 40, Rank: 1}}},
		{"drop@10:r2:x3", []Event{{Kind: Drop, Gen: 10, Rank: 2, Count: 3}}},
		{"drop@10:r2:x*", []Event{{Kind: Drop, Gen: 10, Rank: 2, Count: -1}}},
		{"delay@5:r0", []Event{{Kind: Delay, Gen: 5, Rank: 0, Delay: DefaultDelay}}},
		{"delay@5:r0:2ms:x2", []Event{{Kind: Delay, Gen: 5, Rank: 0, Delay: 2 * time.Millisecond, Count: 2}}},
		{"crash@1:r0,drop@2:r1", []Event{{Kind: Crash, Gen: 1, Rank: 0}, {Kind: Drop, Gen: 2, Rank: 1}}},
		{" crash@0:r3 ", []Event{{Kind: Crash, Gen: 0, Rank: 3}}},
	}
	for _, tc := range cases {
		plan, err := Parse(tc.spec, 7, 4)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		got := planEvents(plan)
		if len(got) != len(tc.want) {
			t.Errorf("Parse(%q): %d events, want %d", tc.spec, len(got), len(tc.want))
			continue
		}
		for i := range got {
			w := tc.want[i]
			// NewPlan normalizes Count 0 -> fires once but planEvents returns
			// the original Count, so compare fields directly.
			if got[i].Kind != w.Kind || got[i].Gen != w.Gen || got[i].Rank != w.Rank ||
				got[i].Count != w.Count || got[i].Delay != w.Delay {
				t.Errorf("Parse(%q) event %d = %+v, want %+v", tc.spec, i, got[i], w)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"crash",           // missing @GEN
		"crash@x:r0",      // bad generation
		"crash@-1:r0",     // negative generation
		"crash@1:x0",      // bad rank syntax
		"crash@1:r9",      // rank out of range
		"crash@1:r0:x0",   // non-positive count
		"crash@1:r0:2ms",  // duration on a non-delay event
		"delay@1:r0:-2ms", // negative duration
		"boom@1:r0",       // unknown kind
		"crash@1:r0,,",    // empty event
		"rand:0",          // non-positive rand count
		"rand:3:1",        // MAXGEN too small
		"rand:3:10:zz",    // too many rand fields
	}
	for _, spec := range bad {
		if _, err := Parse(spec, 7, 4); err == nil {
			t.Errorf("Parse(%q): want error, got nil", spec)
		}
	}
	if _, err := Parse("crash@1:r0", 7, 0); err == nil {
		t.Errorf("Parse with 0 ranks: want error, got nil")
	}
}

func TestParseEmptySpecIsNilPlan(t *testing.T) {
	plan, err := Parse("", 7, 4)
	if err != nil || plan != nil {
		t.Fatalf("Parse(\"\") = (%v, %v), want (nil, nil)", plan, err)
	}
	// A nil plan is a usable no-op injector.
	if err := plan.Crash(0, 10); err != nil {
		t.Errorf("nil plan Crash = %v, want nil", err)
	}
	if plan.Drop(0, 1, 10) {
		t.Errorf("nil plan Drop = true, want false")
	}
	if d := plan.Delay(0, 1, 10); d != 0 {
		t.Errorf("nil plan Delay = %v, want 0", d)
	}
	if s := plan.String(); s != "" {
		t.Errorf("nil plan String = %q, want empty", s)
	}
}

func TestCrashFiresOnceAtOrAfterGen(t *testing.T) {
	plan := NewPlan(Event{Kind: Crash, Gen: 5, Rank: 1})
	if err := plan.Crash(1, 4); err != nil {
		t.Fatalf("crash fired before its generation: %v", err)
	}
	if err := plan.Crash(0, 5); err != nil {
		t.Fatalf("crash fired for the wrong rank: %v", err)
	}
	err := plan.Crash(1, 7) // matches at gen >= 5
	if err == nil {
		t.Fatal("crash did not fire at gen 7 >= 5")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("crash error %v does not match ErrInjected", err)
	}
	var ce *CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 || ce.Gen != 7 {
		t.Fatalf("crash error %v, want CrashError{Rank:1, Gen:7}", err)
	}
	// One-shot: the event is consumed and never re-fires, which is what
	// lets supervised recovery converge.
	if err := plan.Crash(1, 8); err != nil {
		t.Fatalf("consumed crash re-fired: %v", err)
	}
}

func TestDropCountAndPermanent(t *testing.T) {
	plan := NewPlan(
		Event{Kind: Drop, Gen: 2, Rank: 0, Count: 2},
		Event{Kind: Drop, Gen: 10, Rank: 1, Count: -1},
	)
	fired := 0
	for i := 0; i < 5; i++ {
		if plan.Drop(0, 3, 2) {
			fired++
		}
	}
	if fired != 2 {
		t.Fatalf("count-2 drop fired %d times, want 2", fired)
	}
	for i := 0; i < 100; i++ {
		if !plan.Drop(1, 0, 10+i) {
			t.Fatalf("permanent drop stopped firing at i=%d", i)
		}
	}
}

func TestDelayReturnsConfiguredDuration(t *testing.T) {
	plan := NewPlan(Event{Kind: Delay, Gen: 1, Rank: 2, Delay: 3 * time.Millisecond})
	if d := plan.Delay(2, 0, 1); d != 3*time.Millisecond {
		t.Fatalf("Delay = %v, want 3ms", d)
	}
	if d := plan.Delay(2, 0, 2); d != 0 {
		t.Fatalf("consumed delay re-fired with %v", d)
	}
	// Zero-delay events are normalized to DefaultDelay.
	plan = NewPlan(Event{Kind: Delay, Gen: 0, Rank: 0})
	if d := plan.Delay(0, 1, 0); d != DefaultDelay {
		t.Fatalf("defaulted Delay = %v, want %v", d, DefaultDelay)
	}
}

func TestRandomEventsDeterministic(t *testing.T) {
	a := RandomEvents(42, 9, 64, 5)
	b := RandomEvents(42, 9, 64, 5)
	if len(a) != 9 {
		t.Fatalf("RandomEvents returned %d events, want 9", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("RandomEvents not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Gen < 1 || a[i].Gen >= 64 {
			t.Errorf("event %d generation %d out of [1,64)", i, a[i].Gen)
		}
		if a[i].Rank < 0 || a[i].Rank >= 5 {
			t.Errorf("event %d rank %d out of [0,5)", i, a[i].Rank)
		}
	}
	c := RandomEvents(43, 9, 64, 5)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanStringRoundTrips(t *testing.T) {
	spec := "crash@40:r1,drop@10:r2:x3,delay@5:r0:2ms,drop@7:r3:x*"
	plan, err := Parse(spec, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	rendered := plan.String()
	again, err := Parse(rendered, 7, 4)
	if err != nil {
		t.Fatalf("re-parsing rendered plan %q: %v", rendered, err)
	}
	a, b := planEvents(plan), planEvents(again)
	if len(a) != len(b) {
		t.Fatalf("round trip changed event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		// Count 0 and 1 both mean "fires once"; String renders neither.
		na, nb := a[i], b[i]
		if na.Count == 1 {
			na.Count = 0
		}
		if nb.Count == 1 {
			nb.Count = 0
		}
		if na != nb {
			t.Errorf("round trip event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}
