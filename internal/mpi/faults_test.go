package mpi

import (
	"errors"
	"testing"
	"time"

	"evogame/internal/faults"
)

// watchdog runs fn and fails the test if it has not returned within d:
// the whole point of the fault-hardened fabric is that no blocking
// primitive can hang forever once a peer rank dies.
func watchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("watchdog: still blocked after %v (deadlock)", d)
		return nil
	}
}

// TestRankErrorMidCollectiveDoesNotDeadlock is the regression test for the
// pre-existing hang: a rank erroring out in the middle of a collective
// left its peers blocked forever in their mailbox waits.  The fabric now
// propagates the first failure to every blocked mailbox immediately.
func TestRankErrorMidCollectiveDoesNotDeadlock(t *testing.T) {
	wantErr := errors.New("boom")
	err := watchdog(t, 5*time.Second, func() error {
		return Run(4, func(c *Comm) error {
			if c.Rank() == 2 {
				return wantErr // dies before joining the collective
			}
			// The other ranks enter a barrier that can never complete.
			if err := c.Barrier(); err != nil {
				return err
			}
			_, err := c.Bcast(0, []byte("x"))
			return err
		})
	})
	if err == nil {
		t.Fatal("Run returned nil; want the rank-2 failure")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run error %v does not wrap the root cause", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Fatalf("Run error %v, want *RankError for rank 2", err)
	}
}

// TestRankDeathUnblocksPendingRecv pins the point-to-point side: a Recv
// posted against a rank that later dies returns ErrRankFailed instead of
// waiting forever.
func TestRankDeathUnblocksPendingRecv(t *testing.T) {
	wantErr := errors.New("rank 1 gave up")
	err := watchdog(t, 5*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			switch c.Rank() {
			case 1:
				return wantErr
			case 2:
				_, err := c.Recv(1, 7) // rank 1 never sends
				if !errors.Is(err, ErrRankFailed) {
					t.Errorf("Recv after peer death: %v, want ErrRankFailed", err)
				}
				return err
			default:
				return nil
			}
		})
	})
	if !errors.Is(err, ErrRankFailed) || !errors.Is(err, wantErr) {
		t.Fatalf("Run error %v, want ErrRankFailed wrapping %v", err, wantErr)
	}
}

// TestQueuedMessageDeliveredBeforeFailure pins the ordering contract: a
// message that was already delivered to the mailbox is still received
// after its sender dies; only the next (unsatisfiable) wait fails.
func TestQueuedMessageDeliveredBeforeFailure(t *testing.T) {
	watchdog(t, 5*time.Second, func() error {
		return Run(2, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 7, []byte("last words")); err != nil {
					return err
				}
				return errors.New("rank 0 dies after sending")
			}
			data, err := c.Recv(0, 7)
			if err != nil {
				t.Errorf("Recv of a queued message failed: %v", err)
				return err
			}
			if string(data) != "last words" {
				t.Errorf("Recv = %q, want %q", data, "last words")
			}
			_, err = c.Recv(0, 8) // nothing more is coming
			if !errors.Is(err, ErrRankFailed) {
				t.Errorf("Recv after sender death: %v, want ErrRankFailed", err)
			}
			return nil
		})
	})
}

// TestDeadlineExpires pins the deadline backstop: two ranks in a mutual
// Recv deadlock both fail with ErrDeadline instead of hanging.
func TestDeadlineExpires(t *testing.T) {
	err := watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(2, Options{Deadline: 50 * time.Millisecond}, func(c *Comm) error {
			_, err := c.Recv(1-c.Rank(), 3) // neither rank ever sends
			if !errors.Is(err, ErrDeadline) {
				t.Errorf("rank %d Recv error %v, want ErrDeadline", c.Rank(), err)
			}
			return err
		})
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Run error %v, want ErrDeadline", err)
	}
}

// TestDeadlineDoesNotFireOnTimelyTraffic guards against false positives:
// normal traffic under a generous deadline completes without error.
func TestDeadlineDoesNotFireOnTimelyTraffic(t *testing.T) {
	err := watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(3, Options{Deadline: 2 * time.Second}, func(c *Comm) error {
			for i := 0; i < 10; i++ {
				if _, err := c.Bcast(0, []byte{byte(i)}); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("timely run failed: %v", err)
	}
}

// TestInjectedDropsRecoverWithinRetryBudget pins the drop-retry interplay:
// a bounded transient drop burst below the retry budget is invisible to
// the protocol (the message arrives) and visible only in the counters.
func TestInjectedDropsRecoverWithinRetryBudget(t *testing.T) {
	plan := faults.NewPlan(faults.Event{Kind: faults.Drop, Gen: 0, Rank: 0, Count: 3})
	var stats Stats
	err := watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(2, Options{Injector: plan}, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 7, []byte("through the storm")); err != nil {
					return err
				}
				stats = c.Stats()
				return nil
			}
			data, err := c.Recv(0, 7)
			if err != nil {
				return err
			}
			if string(data) != "through the storm" {
				t.Errorf("Recv = %q", data)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatalf("run with recoverable drops failed: %v", err)
	}
	if stats.DroppedMessages != 3 || stats.RetriedSends != 3 {
		t.Fatalf("stats = %d dropped / %d retried, want 3 / 3", stats.DroppedMessages, stats.RetriedSends)
	}
}

// TestSendFailsAfterRetriesExhausted pins the other side: a permanent drop
// exhausts the RetryBudget retries and surfaces as ErrSendFailed, which
// also matches ErrRankFailed at the Run level (the sender dies of it).
func TestSendFailsAfterRetriesExhausted(t *testing.T) {
	plan := faults.NewPlan(faults.Event{Kind: faults.Drop, Gen: 0, Rank: 0, Count: -1})
	var stats Stats
	err := watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(2, Options{Injector: plan}, func(c *Comm) error {
			if c.Rank() == 0 {
				err := c.Send(1, 7, []byte("never arrives"))
				stats = c.Stats()
				return err
			}
			_, err := c.Recv(0, 7)
			return err
		})
	})
	if !errors.Is(err, ErrSendFailed) {
		t.Fatalf("Run error %v, want ErrSendFailed", err)
	}
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("Run error %v should also match ErrRankFailed", err)
	}
	if stats.RetriedSends != RetryBudget || stats.DroppedMessages != RetryBudget+1 {
		t.Fatalf("stats = %d dropped / %d retried, want %d / %d",
			stats.DroppedMessages, stats.RetriedSends, RetryBudget+1, RetryBudget)
	}
}

// TestInjectedDelayCountsAndDelivers pins delay injection: the message
// still arrives and the delay is counted.
func TestInjectedDelayCountsAndDelivers(t *testing.T) {
	plan := faults.NewPlan(faults.Event{Kind: faults.Delay, Gen: 0, Rank: 0, Delay: time.Millisecond})
	var stats Stats
	err := watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(2, Options{Injector: plan}, func(c *Comm) error {
			if c.Rank() == 0 {
				if err := c.Send(1, 7, []byte("late")); err != nil {
					return err
				}
				stats = c.Stats()
				return nil
			}
			_, err := c.Recv(0, 7)
			return err
		})
	})
	if err != nil {
		t.Fatalf("run with injected delay failed: %v", err)
	}
	if stats.DelayedMessages != 1 {
		t.Fatalf("DelayedMessages = %d, want 1", stats.DelayedMessages)
	}
}

// TestFaultPointInjectsCrash pins the generation-loop crash hook: the
// injected CrashError propagates through Run and unblocks the peers.
func TestFaultPointInjectsCrash(t *testing.T) {
	plan := faults.NewPlan(faults.Event{Kind: faults.Crash, Gen: 3, Rank: 1})
	err := watchdog(t, 5*time.Second, func() error {
		return Run(3, func(c *Comm) error {
			for gen := 0; gen < 10; gen++ {
				if err := c.FaultPoint(gen); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal("Run without injector must ignore FaultPoint; separate run below")
	}
	err = watchdog(t, 5*time.Second, func() error {
		return RunWithOptions(3, Options{Injector: plan}, func(c *Comm) error {
			for gen := 0; gen < 10; gen++ {
				if err := c.FaultPoint(gen); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Run error %v, want faults.ErrInjected", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 1 || re.Gen < 3 {
		t.Fatalf("Run error %v, want *RankError{Rank:1, Gen>=3}", err)
	}
	var ce *faults.CrashError
	if !errors.As(err, &ce) || ce.Rank != 1 || ce.Gen != 3 {
		t.Fatalf("Run error %v, want wrapped CrashError{Rank:1, Gen:3}", err)
	}
}
