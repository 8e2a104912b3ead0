// Package faults provides deterministic, replayable fault plans for
// chaos-testing the distributed engine.  A Plan is a finite schedule of
// rank crashes, message drops and message delays keyed on (generation,
// rank) points; it satisfies the mpi.FaultInjector contract structurally
// (this package deliberately does not import internal/mpi, so the serial
// engine can consume plans without pulling in the fabric).
//
// Determinism contract: a Plan holds no hidden clock or ambient
// randomness.  Random plans are derived from an explicit seed through the
// internal/rng discipline, so a chaos run is exactly replayable from
// (seed, spec).  Every event is consumed as it fires (a bounded Count,
// -1 = unlimited), which is what makes supervised recovery converge: a
// crash that already fired is not re-armed when the supervisor resumes
// the run from a checkpoint.
package faults

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"evogame/internal/rng"
)

// Kind enumerates the fault classes a Plan can inject.
type Kind int

// The fault classes: a rank crash (the rank exits with a *CrashError at
// its next fault point), a message drop (the sender's next send at or
// after the event generation is lost in transit), and a message delay
// (extra in-transit latency on the sender's next send).
const (
	Crash Kind = iota
	Drop
	Delay
)

// String names the fault kind as it appears in the spec grammar.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultDelay is the injected latency of a delay event that does not
// specify its own duration.
const DefaultDelay = time.Millisecond

// ErrInjected is the sentinel matched (via errors.Is) by every error this
// package injects; the supervisor classifies such failures as transient.
var ErrInjected = errors.New("faults: injected fault")

// CrashError is the error a rank exits with when its fault plan schedules
// a crash.  errors.Is(err, ErrInjected) matches it.
type CrashError struct {
	Rank int // the crashed rank
	Gen  int // the generation at which the crash fired
}

func (e *CrashError) Error() string {
	return fmt.Sprintf("faults: injected crash of rank %d at generation %d", e.Rank, e.Gen)
}

// Is matches the ErrInjected sentinel.
func (e *CrashError) Is(target error) bool { return target == ErrInjected }

// Event is one scheduled fault.  An event is armed from generation Gen
// onward and fires at the first matching opportunity (the rank's next
// fault point for crashes, the rank's next send for drops and delays), at
// most Count times.
type Event struct {
	// Kind is the fault class.
	Kind Kind
	// Gen is the first generation (epoch) at which the event is armed.
	Gen int
	// Rank is the crashing rank (Crash) or the sending rank (Drop, Delay).
	Rank int
	// Count is how many times the event fires: 0 means once, a negative
	// value means every time (a permanent fault).
	Count int
	// Delay is the injected latency of a Delay event (DefaultDelay if 0).
	Delay time.Duration
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%d:r%d", e.Kind, e.Gen, e.Rank)
	if e.Kind == Delay && e.Delay > 0 && e.Delay != DefaultDelay {
		s += ":" + e.Delay.String()
	}
	if e.Count < 0 {
		s += ":x*"
	} else if e.Count > 1 {
		s += fmt.Sprintf(":x%d", e.Count)
	}
	return s
}

// armed is an Event plus its remaining-firings counter.
type armed struct {
	Event
	remaining int // < 0 = unlimited
}

// Plan is a consumable schedule of fault events, safe for concurrent use
// by every rank of a communicator.  The zero value (and a nil *Plan) is a
// no-op injector.
type Plan struct {
	mu     sync.Mutex
	events []armed
}

// NewPlan builds a Plan from explicit events.  Passing no events yields a
// no-op plan.
func NewPlan(events ...Event) *Plan {
	p := &Plan{events: make([]armed, 0, len(events))}
	for _, e := range events {
		n := e.Count
		if n == 0 {
			n = 1
		}
		if e.Kind == Delay && e.Delay <= 0 {
			e.Delay = DefaultDelay
		}
		p.events = append(p.events, armed{Event: e, remaining: n})
	}
	return p
}

// consume fires and decrements the first armed event matching (kind, rank)
// at or after gen, returning the event and whether one fired.
func (p *Plan) consume(kind Kind, rank, gen int) (Event, bool) {
	for i := range p.events {
		ev := &p.events[i]
		if ev.Kind != kind || ev.Rank != rank || gen < ev.Gen || ev.remaining == 0 {
			continue
		}
		if ev.remaining > 0 {
			ev.remaining--
		}
		return ev.Event, true
	}
	return Event{}, false
}

// Crash implements the injector contract: it returns a *CrashError when a
// crash event is armed for (rank, epoch), consuming the event.
func (p *Plan) Crash(rank, epoch int) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.consume(Crash, rank, epoch); ok {
		return &CrashError{Rank: rank, Gen: epoch}
	}
	return nil
}

// Drop implements the injector contract: it reports whether the next
// message sent by src at the given epoch is lost, consuming one drop
// event per affirmative answer.  The destination is accepted for
// interface compatibility; events are keyed on the sender.
func (p *Plan) Drop(src, _, epoch int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.consume(Drop, src, epoch); ok {
		return true
	}
	return false
}

// Delay implements the injector contract: it returns the extra in-transit
// latency of the next message sent by src at the given epoch (0 = none),
// consuming one delay event per non-zero answer.
func (p *Plan) Delay(src, _, epoch int) time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if ev, ok := p.consume(Delay, src, epoch); ok {
		return ev.Delay
	}
	return 0
}

// String renders the plan in the spec grammar accepted by Parse.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	parts := make([]string, len(p.events))
	for i, ev := range p.events {
		parts[i] = ev.Event.String()
	}
	return strings.Join(parts, ",")
}

// Parse builds a Plan from a comma-separated spec.  Each event is
//
//	crash@GEN:rRANK[:xCOUNT]
//	drop@GEN:rRANK[:xCOUNT]
//	delay@GEN:rRANK[:DURATION][:xCOUNT]
//
// where COUNT is a positive firing count or * for a permanent fault, and
// DURATION is a Go duration ("2ms").  The pseudo-event
//
//	rand:N[:MAXGEN]
//
// expands to N events drawn deterministically from seed (see Random) over
// generations [1, MAXGEN) — MAXGEN defaults to 64 — and ranks [0, ranks).
// An empty spec yields a nil plan.  seed and ranks are only consulted by
// rand events.
func Parse(spec string, seed uint64, ranks int) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("faults: ranks must be positive to parse spec %q, got %d", spec, ranks)
	}
	var events []Event
	for _, raw := range strings.Split(spec, ",") {
		part := strings.TrimSpace(raw)
		if part == "" {
			return nil, fmt.Errorf("faults: spec %q has an empty event", spec)
		}
		if rest, ok := strings.CutPrefix(part, "rand:"); ok {
			evs, err := parseRand(rest, seed, ranks)
			if err != nil {
				return nil, fmt.Errorf("faults: spec event %q: %w", part, err)
			}
			events = append(events, evs...)
			continue
		}
		ev, err := parseEvent(part, ranks)
		if err != nil {
			return nil, fmt.Errorf("faults: spec event %q: %w", part, err)
		}
		events = append(events, ev)
	}
	return NewPlan(events...), nil
}

// parseEvent parses one crash/drop/delay event of the spec grammar.
func parseEvent(part string, ranks int) (Event, error) {
	kindStr, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Event{}, errors.New("missing @GEN")
	}
	var ev Event
	switch kindStr {
	case "crash":
		ev.Kind = Crash
	case "drop":
		ev.Kind = Drop
	case "delay":
		ev.Kind = Delay
	default:
		return Event{}, fmt.Errorf("unknown fault kind %q (want crash, drop or delay)", kindStr)
	}
	fields := strings.Split(rest, ":")
	if len(fields) < 2 {
		return Event{}, errors.New("missing :rRANK")
	}
	gen, err := strconv.Atoi(fields[0])
	if err != nil || gen < 0 {
		return Event{}, fmt.Errorf("generation %q must be a non-negative integer", fields[0])
	}
	ev.Gen = gen
	rankStr, ok := strings.CutPrefix(fields[1], "r")
	if !ok {
		return Event{}, fmt.Errorf("rank %q must be rN", fields[1])
	}
	rank, err := strconv.Atoi(rankStr)
	if err != nil || rank < 0 || rank >= ranks {
		return Event{}, fmt.Errorf("rank %q must name a rank in [0,%d)", fields[1], ranks)
	}
	ev.Rank = rank
	for _, f := range fields[2:] {
		if f == "x*" {
			ev.Count = -1
			continue
		}
		if nStr, ok := strings.CutPrefix(f, "x"); ok {
			n, err := strconv.Atoi(nStr)
			if err != nil || n <= 0 {
				return Event{}, fmt.Errorf("count %q must be a positive integer or x*", f)
			}
			ev.Count = n
			continue
		}
		if ev.Kind != Delay {
			return Event{}, fmt.Errorf("unexpected field %q (only delay events take a duration)", f)
		}
		d, err := time.ParseDuration(f)
		if err != nil || d <= 0 {
			return Event{}, fmt.Errorf("duration %q must be a positive Go duration", f)
		}
		ev.Delay = d
	}
	return ev, nil
}

// parseRand parses the N[:MAXGEN] tail of a rand pseudo-event.
func parseRand(rest string, seed uint64, ranks int) ([]Event, error) {
	fields := strings.Split(rest, ":")
	n, err := strconv.Atoi(fields[0])
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("rand count %q must be a positive integer", fields[0])
	}
	maxGen := 64
	if len(fields) > 1 {
		maxGen, err = strconv.Atoi(fields[1])
		if err != nil || maxGen <= 1 {
			return nil, fmt.Errorf("rand MAXGEN %q must be an integer > 1", fields[1])
		}
	}
	if len(fields) > 2 {
		return nil, fmt.Errorf("rand takes at most N:MAXGEN, got %d fields", len(fields))
	}
	return RandomEvents(seed, n, maxGen, ranks), nil
}

// RandomEvents derives n fault events deterministically from seed: kinds
// cycle crash/drop/delay, generations are uniform in [1, maxGen), ranks
// uniform in [0, ranks).  The same (seed, n, maxGen, ranks) always yields
// the same schedule, which is what makes a chaos run replayable.
func RandomEvents(seed uint64, n, maxGen, ranks int) []Event {
	// Offset the seed so a random fault plan never shares a stream with
	// the simulation's own rng tree for the same run seed.
	src := rng.New(seed ^ 0x9e3779b97f4a7c15)
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Kind: Kind(i % 3),
			Gen:  1 + int(src.Uint64n(uint64(maxGen-1))),
			Rank: int(src.Uint64n(uint64(ranks))),
		}
	}
	return events
}
