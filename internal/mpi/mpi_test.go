package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestRunValidation(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run accepted size 0")
	}
	if err := Run(-3, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("Run accepted a negative size")
	}
	if err := Run(2, nil); err == nil {
		t.Fatal("Run accepted a nil function")
	}
}

func TestRunRankAndSize(t *testing.T) {
	const size = 7
	var mu sync.Mutex
	seen := map[int]bool{}
	err := Run(size, func(c *Comm) error {
		if c.Rank() < 0 || c.Rank() >= size {
			return fmt.Errorf("rank %d outside [0,%d)", c.Rank(), size)
		}
		mu.Lock()
		defer mu.Unlock()
		if seen[c.Rank()] {
			return fmt.Errorf("rank %d launched twice", c.Rank())
		}
		seen[c.Rank()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != size {
		t.Fatalf("launched %d distinct ranks, want %d", len(seen), size)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	wantErr := errors.New("boom")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Run returned %v, want the rank error", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("bad rank")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic in a rank was not reported")
	}
}

func TestSendRecvBasic(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("hello"))
		}
		data, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "hello" {
			return fmt.Errorf("received %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvOrderingPerPair(t *testing.T) {
	const n = 100
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			data, err := c.Recv(0, 1)
			if err != nil {
				return err
			}
			if data[0] != byte(i) {
				return fmt.Errorf("message %d arrived out of order (got %d)", i, data[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 10, []byte("ten")); err != nil {
				return err
			}
			return c.Send(1, 20, []byte("twenty"))
		}
		// Receive the later tag first: the tag-10 message must stay queued.
		d20, err := c.Recv(0, 20)
		if err != nil {
			return err
		}
		d10, err := c.Recv(0, 10)
		if err != nil {
			return err
		}
		if string(d20) != "twenty" || string(d10) != "ten" {
			return fmt.Errorf("tag matching failed: %q %q", d20, d10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendBufferReuseSafe(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 1, buf); err != nil {
				return err
			}
			buf[0] = 99 // mutate after send; receiver must still see 1,2,3
			return nil
		}
		data, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, []byte{1, 2, 3}) {
			return fmt.Errorf("send did not copy the payload: %v", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanksAndTags(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if err := c.Send(5, 1, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Send to invalid rank: %v", err)
		}
		if err := c.Send(-1, 1, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Send to negative rank: %v", err)
		}
		if err := c.Send(0, -5, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Send with negative tag: %v", err)
		}
		if err := c.Send(0, reservedTagBase, nil); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Send with reserved tag: %v", err)
		}
		if _, err := c.Recv(9, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Recv from invalid rank: %v", err)
		}
		if _, err := c.Recv(-1, 1); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Recv from negative rank: %v", err)
		}
		if _, err := c.Recv(0, reservedTagBase+7); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Recv with reserved tag: %v", err)
		}
		if _, err := c.Recv(0, -1); !errors.Is(err, ErrInvalidTag) {
			return fmt.Errorf("Recv with negative tag: %v", err)
		}
		if _, err := c.Bcast(17, nil); !errors.Is(err, ErrInvalidRank) {
			return fmt.Errorf("Bcast with invalid root: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBcastDeliversToAllRanks(t *testing.T) {
	const size = 9
	payload := []byte("strategy-table-update")
	results := make([][]byte, size)
	err := Run(size, func(c *Comm) error {
		var send []byte
		if c.Rank() == 3 {
			send = payload
		}
		got, err := c.Bcast(3, send)
		results[c.Rank()] = got
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, got := range results {
		if !bytes.Equal(got, payload) {
			t.Fatalf("rank %d received %q", r, got)
		}
	}
}

// TestBcastRootMayReuseItsBuffer: the root overwrites its payload as soon
// as Bcast returns, and every receiver still reads what was broadcast.  The
// receivers read only after a barrier the root enters after overwriting,
// and they share one copy of the payload, which is not the root's buffer.
func TestBcastRootMayReuseItsBuffer(t *testing.T) {
	const size = 6
	want := []byte("generation-update")
	results := make([][]byte, size)
	err := Run(size, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := bytes.Clone(want)
			if _, err := c.Bcast(0, buf); err != nil {
				return err
			}
			for i := range buf {
				buf[i] = 'X'
			}
			results[0] = buf
			return c.Barrier()
		}
		got, err := c.Bcast(0, nil)
		if err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		results[c.Rank()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < size; r++ {
		if !bytes.Equal(results[r], want) {
			t.Fatalf("rank %d read %q after the root reused its buffer, want %q", r, results[r], want)
		}
		if &results[r][0] != &results[1][0] {
			t.Fatalf("ranks 1 and %d received different copies of one broadcast", r)
		}
	}
	if &results[0][0] == &results[1][0] {
		t.Fatal("the receivers share the root's own buffer")
	}
}

func TestBarrierEstablishesOrdering(t *testing.T) {
	// Every rank increments a counter before the barrier; after the barrier
	// every rank must observe the full count.  Run several rounds to give a
	// broken barrier a chance to interleave.
	const size = 8
	const rounds = 20
	var counter [rounds]int64
	var mu sync.Mutex
	err := Run(size, func(c *Comm) error {
		for round := 0; round < rounds; round++ {
			mu.Lock()
			counter[round]++
			mu.Unlock()
			if err := c.Barrier(); err != nil {
				return err
			}
			mu.Lock()
			v := counter[round]
			mu.Unlock()
			if v != size {
				return fmt.Errorf("round %d: rank %d observed %d increments after the barrier", round, c.Rank(), v)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]byte, 100)); err != nil {
				return err
			}
			st := c.Stats()
			if st.SendCount != 1 || st.BytesSent != 100 {
				return fmt.Errorf("sender stats %+v", st)
			}
			return nil
		}
		if _, err := c.Recv(0, 1); err != nil {
			return err
		}
		st := c.Stats()
		if st.RecvCount != 1 {
			return fmt.Errorf("receiver stats %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyToOneFitnessReturnPattern(t *testing.T) {
	// Reproduces the paper's pairwise-comparison exchange: rank 0 (Nature)
	// broadcasts a pair of selected SSets, the owning ranks send their
	// fitness back point-to-point, and rank 0 broadcasts the update.
	const size = 16
	err := Run(size, func(c *Comm) error {
		const tagFitness = 7
		selected := []byte{3, 11}
		pair, err := c.Bcast(0, selected)
		if err != nil {
			return err
		}
		if c.Rank() == int(pair[0]) || c.Rank() == int(pair[1]) {
			if err := c.Send(0, tagFitness, binary.LittleEndian.AppendUint64(nil, math.Float64bits(float64(c.Rank())*100))); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			got := map[int]float64{}
			for i := 0; i < 2; i++ {
				data, src, err := c.recv(-1, tagFitness)
				if err != nil {
					return err
				}
				got[src] = math.Float64frombits(binary.LittleEndian.Uint64(data))
			}
			if got[3] != 300 || got[11] != 1100 {
				return fmt.Errorf("fitness returns wrong: %v", got)
			}
		}
		// Everyone syncs on the resulting update.
		if _, err := c.Bcast(0, []byte("update")); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Bcast delivers identical bytes to every rank for arbitrary
// payloads and communicator sizes.
func TestQuickBcastIdentical(t *testing.T) {
	f := func(payload []byte, sizeSel uint8) bool {
		size := int(sizeSel%6) + 2
		results := make([][]byte, size)
		err := Run(size, func(c *Comm) error {
			var send []byte
			if c.Rank() == 0 {
				send = payload
			}
			got, err := c.Bcast(0, send)
			results[c.Rank()] = got
			return err
		})
		if err != nil {
			return false
		}
		for _, r := range results {
			if !bytes.Equal(r, payload) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendRecvSmall(b *testing.B) {
	b.ReportAllocs()
	err := Run(2, func(c *Comm) error {
		payload := make([]byte, 64)
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 1, payload); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.Recv(0, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkBcast16Ranks(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	err := Run(16, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			var err error
			if c.Rank() == 0 {
				_, err = c.Bcast(0, payload)
			} else {
				_, err = c.Bcast(0, nil)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
