// Package mpi provides an in-process message-passing runtime with the small
// subset of MPI semantics the evolutionary game dynamics framework needs:
// SPMD rank launch, point-to-point sends and blocking receives with tag
// matching, and the two collective operations the Nature Agent uses
// (broadcast and barrier).
//
// The paper's implementation runs on Blue Gene/P and Blue Gene/Q with MPI
// over the torus and collective networks.  This package substitutes
// goroutines for MPI processes and channels/queues for the network: the
// communication pattern of the algorithm — who sends what to whom and when —
// is preserved exactly, and each rank counts the messages and bytes it
// moves.
//
// Semantics:
//
//   - Sends are asynchronous and buffered (eager protocol): Send never blocks
//     waiting for the receiver.
//   - Messages between a fixed (source, destination) pair are delivered in
//     the order they were sent when matched with the same tag.
//   - Recv blocks until a matching message arrives.
//   - Every rank of the communicator must call each collective; the
//     collectives are implemented on top of point-to-point messages using a
//     reserved tag space (tags >= 1<<30 are reserved).
//   - Send copies its payload, so the sender may reuse its buffer at once
//     and the receiver owns what Recv returns.  Bcast copies its payload
//     once and every receiver gets that one copy: a broadcast payload is
//     shared, read-only data that no receiver may modify.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// reservedTagBase is the start of the tag space used internally by the
// collective operations.
const reservedTagBase = 1 << 30

// ErrInvalidRank is returned when a rank argument is outside [0, Size).
var ErrInvalidRank = errors.New("mpi: invalid rank")

// ErrInvalidTag is returned when a user-supplied tag is negative or falls in
// the reserved collective tag space.
var ErrInvalidTag = errors.New("mpi: invalid tag")

// ErrRankFailed is the sentinel matched (via errors.Is) by every error a
// blocking primitive returns because a peer rank exited with an error or
// panic.  The concrete error is always a *RankError carrying the failed
// rank and the epoch (generation) it had reached.
var ErrRankFailed = errors.New("mpi: rank failed")

// ErrDeadline is returned by a blocking primitive that waited longer than
// the communicator's Options.Deadline without a matching message or a
// detected rank failure.
var ErrDeadline = errors.New("mpi: deadline exceeded")

// ErrSendFailed is returned by Send when the fault injector dropped the
// message more times than RetryBudget allows.
var ErrSendFailed = errors.New("mpi: send failed after retries")

// RankError reports the first rank failure observed on a communicator.  It
// is returned both by Run (as the run's overall error) and by any blocking
// primitive on a surviving rank once the failure has been recorded, so no
// peer ever hangs waiting on a dead rank.  errors.Is(err, ErrRankFailed)
// matches it; Unwrap exposes the failed rank's own error.
type RankError struct {
	Rank int   // the rank that failed
	Gen  int   // the epoch (generation) the rank had reached, via FaultPoint
	Err  error // the rank's own error (or panic, wrapped)
}

func (e *RankError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed at generation %d: %v", e.Rank, e.Gen, e.Err)
}

// Unwrap exposes the failed rank's underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// Is matches the ErrRankFailed sentinel.
func (e *RankError) Is(target error) bool { return target == ErrRankFailed }

// FaultInjector is the hook through which a deterministic fault plan
// (internal/faults) perturbs a communicator.  All methods must be safe for
// concurrent use by every rank.  The zero configuration (nil injector) is a
// strict no-op: the fabric consults it only when non-nil.
type FaultInjector interface {
	// Crash returns a non-nil error when the given rank must exit at the
	// given epoch; the rank returns the error from its function, which the
	// fabric then propagates to all peers as a *RankError.
	Crash(rank, epoch int) error
	// Drop reports whether the next message from src to dst at the given
	// epoch is lost in transit.  The sender retries with capped exponential
	// backoff, consuming one Drop decision per attempt.
	Drop(src, dst, epoch int) bool
	// Delay returns extra in-transit latency for the next message from src
	// to dst at the given epoch (0 = none).
	Delay(src, dst, epoch int) time.Duration
}

// Options configures the failure semantics of a communicator launched by
// RunWithOptions.  The zero value is a plain fabric: no injector and no
// deadline.
type Options struct {
	// Injector perturbs the fabric; nil disables injection entirely.
	Injector FaultInjector
	// Deadline bounds every blocking primitive: a rank blocked longer than
	// this without a matching message or a recorded peer failure returns
	// ErrDeadline.  Zero disables the deadline.
	Deadline time.Duration
}

// RetryBudget is the number of times a send is retried after the fault
// injector drops it before Send gives up with ErrSendFailed.
const RetryBudget = 5

// retryBackoff is the pause before a send's first retry; it doubles per
// retry up to 32 times itself.
const retryBackoff = 100 * time.Microsecond

type message struct {
	src, tag int
	data     []byte
}

// mailbox is the per-destination queue of undelivered messages from all
// sources, protected by a mutex and condition variable so receivers can wait
// for a match.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// queue[head:] are the undelivered messages in arrival order; the
	// slots before head have been taken and are cleared.
	queue []message
	head  int
	rank  int
	fab   *fabric
}

func newMailbox(rank int, fab *fabric) *mailbox {
	m := &mailbox{rank: rank, fab: fab}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.queue = append(m.queue, msg)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take removes and returns the first message matching (src, tag); src < 0
// matches any source.  Queued matches are delivered even after a peer
// failure; once no match is queued, take returns a *RankError if any rank
// has failed, or ErrDeadline if the communicator's deadline elapses first.
func (m *mailbox) take(src, tag int) (message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The flag the timer sets exists only when a deadline is set, so a
	// receive without one allocates nothing.
	var expired *bool
	if d := m.fab.opts.Deadline; d > 0 {
		flag := new(bool)
		expired = flag
		timer := time.AfterFunc(d, func() {
			m.mu.Lock()
			*flag = true
			m.mu.Unlock()
			m.cond.Broadcast()
		})
		defer timer.Stop()
	}
	for {
		for i := m.head; i < len(m.queue); i++ {
			if msg := m.queue[i]; (src < 0 || msg.src == src) && msg.tag == tag {
				m.remove(i)
				return msg, nil
			}
		}
		if err := m.fab.failure(); err != nil {
			return message{}, err
		}
		if expired != nil && *expired {
			return message{}, fmt.Errorf("mpi: rank %d: no message matching (src=%d, tag=%d) within the %v deadline: %w",
				m.rank, src, tag, m.fab.opts.Deadline, ErrDeadline)
		}
		m.cond.Wait()
	}
}

// remove deletes queue[i], i >= head.  The head message, the usual match,
// goes in O(1) by advancing head; a later one shifts the messages behind
// it.  Once head passes half the queue the live messages move to the
// front in place, so the dead prefix never makes put reallocate.  Called
// with mu held.
func (m *mailbox) remove(i int) {
	if i == m.head {
		m.queue[i] = message{}
		m.head++
	} else {
		copy(m.queue[i:], m.queue[i+1:])
		m.queue[len(m.queue)-1] = message{}
		m.queue = m.queue[:len(m.queue)-1]
	}
	if 2*m.head >= len(m.queue) {
		n := copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
}

// fabric is the shared state of one communicator: one mailbox per rank,
// the failure-semantics options, and the first recorded failure.
type fabric struct {
	size      int
	mailboxes []*mailbox
	opts      Options

	mu         sync.Mutex
	failedRank int
	failedGen  int
	failedErr  error
}

func newFabric(size int, opts Options) *fabric {
	f := &fabric{
		size:      size,
		opts:      opts,
		mailboxes: make([]*mailbox, size),
	}
	for i := range f.mailboxes {
		f.mailboxes[i] = newMailbox(i, f)
	}
	return f
}

// fail records the first rank failure and wakes every blocked receiver so
// no peer hangs waiting on the dead rank.  Later failures (typically peers
// dying of the propagated *RankError) keep the root cause.
func (f *fabric) fail(rank, gen int, err error) {
	f.mu.Lock()
	if f.failedErr == nil {
		f.failedRank, f.failedGen, f.failedErr = rank, gen, err
	}
	f.mu.Unlock()
	for _, mb := range f.mailboxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// failure returns a *RankError describing the first recorded failure, or
// nil while all ranks are healthy.
func (f *fabric) failure() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failedErr == nil {
		return nil
	}
	return &RankError{Rank: f.failedRank, Gen: f.failedGen, Err: f.failedErr}
}

// Stats aggregates per-rank communication counters; the scaling studies use
// them to report communication volume per generation.
type Stats struct {
	SendCount int64
	RecvCount int64
	BytesSent int64
	// RetriedSends counts send attempts repeated after the fault injector
	// dropped the message (always zero with no injector).
	RetriedSends int64
	// DroppedMessages counts messages the fault injector dropped in
	// transit, including drops later recovered by a retry.
	DroppedMessages int64
	// DelayedMessages counts messages the fault injector held back with
	// extra in-transit latency.
	DelayedMessages int64
}

// Comm is one rank's handle on the communicator.  A Comm is owned by a
// single goroutine (its rank); it must not be shared.
type Comm struct {
	rank   int
	fabric *fabric

	// epoch is the generation this rank has reached, advanced by
	// FaultPoint; it timestamps failures and scopes injected faults.
	epoch atomic.Int64

	sendCount    atomic.Int64
	recvCount    atomic.Int64
	bytesSent    atomic.Int64
	retriedSends atomic.Int64
	droppedMsgs  atomic.Int64
	delayedMsgs  atomic.Int64
}

// Rank returns this rank's index, 0 to the communicator size minus one.
func (c *Comm) Rank() int { return c.rank }

// Stats returns a snapshot of this rank's communication counters.
func (c *Comm) Stats() Stats {
	return Stats{
		SendCount:       c.sendCount.Load(),
		RecvCount:       c.recvCount.Load(),
		BytesSent:       c.bytesSent.Load(),
		RetriedSends:    c.retriedSends.Load(),
		DroppedMessages: c.droppedMsgs.Load(),
		DelayedMessages: c.delayedMsgs.Load(),
	}
}

// FaultPoint marks this rank's entry into the given epoch (generation).
// The epoch timestamps any later failure of this rank and scopes the fault
// injector's decisions.  When an injector is installed and schedules a
// crash for (rank, epoch), FaultPoint returns the injector's error; the
// rank must return it so the fabric propagates the failure to its peers.
func (c *Comm) FaultPoint(epoch int) error {
	c.epoch.Store(int64(epoch))
	if inj := c.fabric.opts.Injector; inj != nil {
		if err := inj.Crash(c.rank, epoch); err != nil {
			return err
		}
	}
	return nil
}

func (c *Comm) checkRank(rank int) error {
	if rank < 0 || rank >= c.fabric.size {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrInvalidRank, rank, c.fabric.size)
	}
	return nil
}

func checkUserTag(tag int) error {
	if tag < 0 || tag >= reservedTagBase {
		return fmt.Errorf("%w: %d", ErrInvalidTag, tag)
	}
	return nil
}

// send delivers a copy of data to the destination mailbox, so the caller
// may reuse its buffer immediately.
func (c *Comm) send(to, tag int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	return c.deliver(to, tag, cp)
}

// deliver puts data itself, not a copy, in the destination mailbox.  With a
// fault injector installed, the message may be delayed (extra latency) or
// dropped; drops are retried with capped exponential backoff up to
// RetryBudget times, and a delivery issued after a peer failure has been
// recorded fails fast with the propagated *RankError.
func (c *Comm) deliver(to, tag int, data []byte) error {
	if err := c.checkRank(to); err != nil {
		return err
	}
	if inj := c.fabric.opts.Injector; inj != nil {
		if err := c.fabric.failure(); err != nil {
			return err
		}
		epoch := int(c.epoch.Load())
		if d := inj.Delay(c.rank, to, epoch); d > 0 {
			c.delayedMsgs.Add(1)
			time.Sleep(d)
		}
		attempt := 0
		for inj.Drop(c.rank, to, epoch) {
			c.droppedMsgs.Add(1)
			if attempt >= RetryBudget {
				return fmt.Errorf("mpi: rank %d: send to rank %d (tag %d) dropped %d times at generation %d: %w",
					c.rank, to, tag, attempt+1, epoch, ErrSendFailed)
			}
			attempt++
			c.retriedSends.Add(1)
			time.Sleep(retryBackoff << min(attempt-1, 5))
		}
	}
	c.fabric.mailboxes[to].put(message{src: c.rank, tag: tag, data: data})
	c.sendCount.Add(1)
	c.bytesSent.Add(int64(len(data)))
	return nil
}

func (c *Comm) recv(from, tag int) ([]byte, int, error) {
	if from >= c.fabric.size {
		return nil, 0, fmt.Errorf("%w: %d not in [0,%d)", ErrInvalidRank, from, c.fabric.size)
	}
	msg, err := c.fabric.mailboxes[c.rank].take(from, tag)
	if err != nil {
		return nil, 0, err
	}
	c.recvCount.Add(1)
	return msg.data, msg.src, nil
}

// Send transmits data to rank `to` with the given tag.  It does not block
// waiting for a matching receive.
func (c *Comm) Send(to, tag int, data []byte) error {
	if err := checkUserTag(tag); err != nil {
		return err
	}
	return c.send(to, tag, data)
}

// Recv blocks until a message with the given tag arrives from rank `from`
// (AnySource is not supported; pass the concrete rank).
func (c *Comm) Recv(from, tag int) ([]byte, error) {
	if err := checkUserTag(tag); err != nil {
		return nil, err
	}
	if from < 0 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidRank, from)
	}
	data, _, err := c.recv(from, tag)
	return data, err
}

// Bcast broadcasts data from root to every rank.  Every rank must call it;
// the root passes the payload, other ranks pass nil and receive the payload
// as the return value.  The root copies data once, so it may reuse its
// buffer as soon as Bcast returns, and every receiver gets that same copy:
// receivers share one backing array and must not modify it.
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.checkRank(root); err != nil {
		return nil, err
	}
	tag := reservedTagBase + 1
	if c.rank == root {
		shared := make([]byte, len(data))
		copy(shared, data)
		for r := 0; r < c.fabric.size; r++ {
			if r == root {
				continue
			}
			if err := c.deliver(r, tag, shared); err != nil {
				return nil, err
			}
		}
		return data, nil
	}
	out, _, err := c.recv(root, tag)
	return out, err
}

// Barrier blocks until every rank has entered it.
func (c *Comm) Barrier() error {
	const root = 0
	tagIn := reservedTagBase + 3
	tagOut := reservedTagBase + 4
	if c.rank == root {
		for r := 1; r < c.fabric.size; r++ {
			if _, _, err := c.recv(-1, tagIn); err != nil {
				return err
			}
		}
		for r := 1; r < c.fabric.size; r++ {
			if err := c.send(r, tagOut, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(root, tagIn, nil); err != nil {
		return err
	}
	_, _, err := c.recv(root, tagOut)
	return err
}

// Run launches size ranks, each executing fn with its own Comm, and waits
// for all of them to finish.  Run panics propagate to the caller as errors.
// The first rank failure is returned as a *RankError wrapping the rank's
// own error, and is propagated immediately to every peer blocked in a
// receive or collective, so an early rank death can never deadlock the
// survivors.
func Run(size int, fn func(c *Comm) error) error {
	return RunWithOptions(size, Options{}, fn)
}

// RunWithOptions behaves like Run with explicit failure semantics: a fault
// injector and a blocking deadline (see Options).
func RunWithOptions(size int, opts Options, fn func(c *Comm) error) error {
	if size <= 0 {
		return fmt.Errorf("mpi: communicator size must be positive, got %d", size)
	}
	if fn == nil {
		return errors.New("mpi: nil rank function")
	}
	f := newFabric(size, opts)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(rank int) {
			c := &Comm{rank: rank, fabric: f}
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
				if errs[rank] != nil {
					f.fail(rank, int(c.epoch.Load()), errs[rank])
				}
			}()
			errs[rank] = fn(c)
		}(r)
	}
	wg.Wait()
	// Prefer the recorded first failure: it carries the root cause, where
	// errs[0] may only hold a propagated *RankError.
	if err := f.failure(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
