package trace

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAddAndTotals(t *testing.T) {
	r := NewRecorder()
	if r.Total(PhaseCompute) != 0 || r.Total(PhaseComm) != 0 {
		t.Fatal("a new recorder should be empty")
	}
	r.Add(PhaseCompute, 100*time.Millisecond)
	r.Add(PhaseCompute, 50*time.Millisecond)
	r.Add(PhaseComm, 25*time.Millisecond)
	if r.Total(PhaseCompute) != 150*time.Millisecond {
		t.Fatalf("compute total = %v", r.Total(PhaseCompute))
	}
	if r.Total(PhaseComm) != 25*time.Millisecond {
		t.Fatalf("comm total = %v", r.Total(PhaseComm))
	}
}

func TestNegativeDurationsClamped(t *testing.T) {
	r := NewRecorder()
	r.Add(PhaseComm, time.Millisecond)
	r.Add(PhaseComm, -time.Second)
	if r.Total(PhaseComm) != time.Millisecond {
		t.Fatalf("negative duration was not clamped: total %v", r.Total(PhaseComm))
	}
}

func TestTimeHelpers(t *testing.T) {
	r := NewRecorder()
	err := r.TimeErr(PhaseCompute, func() error { time.Sleep(2 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if r.Total(PhaseCompute) < time.Millisecond {
		t.Fatalf("TimeErr recorded %v", r.Total(PhaseCompute))
	}
	boom := errors.New("boom")
	if err := r.TimeErr(PhaseComm, func() error { return boom }); err != boom {
		t.Fatalf("TimeErr returned %v, want fn's error", err)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(PhaseCompute, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Total(PhaseCompute) != 16000*time.Microsecond {
		t.Fatalf("concurrent total = %v", r.Total(PhaseCompute))
	}
}
