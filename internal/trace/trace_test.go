package trace

import (
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

func TestLapChargesEachIntervalOnce(t *testing.T) {
	r := NewRecorder()
	time.Sleep(2 * time.Millisecond)
	r.Lap(PhaseComm)
	comm := r.Total(PhaseComm)
	if comm < 2*time.Millisecond {
		t.Fatalf("first lap charged %v, want the time since NewRecorder", comm)
	}
	if r.Total(PhaseCompute) != 0 {
		t.Fatalf("a comm lap charged compute %v", r.Total(PhaseCompute))
	}
	time.Sleep(2 * time.Millisecond)
	r.Lap(PhaseCompute)
	r.Lap(PhaseCompute)
	if got := r.Total(PhaseComm); got != comm {
		t.Fatalf("a compute lap moved comm %v -> %v", comm, got)
	}
	compute := r.Total(PhaseCompute)
	if compute < 2*time.Millisecond {
		t.Fatalf("second lap charged %v, want the time since the first", compute)
	}
	// Laps tile the time since NewRecorder: no interval is charged twice.
	if total := r.Total(PhaseComm) + r.Total(PhaseCompute); total != r.mark {
		t.Fatalf("laps charged %v, %v elapsed by the last mark", total, r.mark)
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
