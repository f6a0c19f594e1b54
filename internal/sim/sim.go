// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the reproduction's substitute for the Stanford Narses simulator used
// in the CUP paper: a virtual clock, an event queue that fires in (time,
// scheduling order), and a seeded random source. All experiments in this
// repository are driven by a Scheduler; determinism (same seed, same
// schedule, same results) is a hard requirement so that the paper's tables
// regenerate reproducibly.
//
// The queue is two arrays of values and one slot under one order. Timers
// (At, After: a func() at any time) sit in a binary heap. Messages (Post: a
// reference for the run's Deliver function) fall due one hop delay from
// now, so under the paper's constant delay they arrive sorted: Post appends
// to a FIFO — the lane — unless the message is due before the lane's tail
// (a latency model reordered it). The client arrival stream (Arrive: a
// func() at any time, like At) keeps one event armed, re-arming as it
// fires, so it waits in a slot of its own beside the two, and falls back to
// the heap only while the slot is full. Step takes the earliest of the
// three heads. Timers never enter the lane, so one 300 s out cannot block
// it, nor take the slot the arrivals use.
//
// Entries leave the queue in strictly increasing (at, seq) order, so an
// EventID is simply that pair: the event's place in the firing order. An
// event is still queued iff its place is after that of the last entry to
// leave, and Cancel records the cancelled ones in a set; a cancelled entry
// leaves in its turn like any other and runs nothing.
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the start of the run.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Infinity is a time later than every event in any simulation.
const Infinity = Time(math.MaxFloat64)

// EventID names a scheduled event by its place in the firing order: its
// time, then its scheduling sequence number, which breaks ties so
// simultaneous events fire in scheduling order. The zero EventID refers
// to no event.
type EventID struct {
	at  Time
	seq uint64
}

// before reports whether a sorts before b in the firing order.
func (a EventID) before(b EventID) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// entry is one queued event, held by value: the sort key, then a timer's
// or an arrival's fn or, with a nil fn, a message's ref.
type entry struct {
	EventID
	fn  func()
	ref uint32
}

// Scheduler is a discrete-event scheduler. It is not safe for concurrent
// use; the live runtime (internal/live) uses real goroutines instead.
// Run independent Schedulers (one per goroutine) for parallel sweeps.
type Scheduler struct {
	now  Time
	seq  uint64
	heap []entry
	// lane[head:] is the FIFO beside the heap, in (at, seq) order.
	lane []entry
	head int
	// arrival is the slot of one event scheduled with Arrive, empty while
	// its seq is zero.
	arrival entry
	// out is the place of the last entry to leave the queue; every entry
	// still queued sorts after it.
	out EventID
	// cancelled holds the seqs of cancelled entries still queued.
	cancelled map[uint64]struct{}
	// Deliver receives the reference of each message posted with Post
	// when it falls due; a run sets it once, before its first Post.
	Deliver func(ref uint32)
	// Executed counts events that have fired (for progress reporting and
	// runaway detection in tests).
	Executed uint64
	// MaxEvents caps Executed: the Run variants return ErrEventBudget as
	// soon as an event beyond the budget is due, so exactly MaxEvents
	// events fire. Zero means unlimited.
	MaxEvents uint64
}

// ErrEventBudget is returned by Run variants when MaxEvents is exceeded.
var ErrEventBudget = errors.New("sim: event budget exceeded")

// NewScheduler returns an empty scheduler at time zero. The heap is
// pre-sized so short-lived schedulers never grow it.
func NewScheduler() *Scheduler {
	return &Scheduler{heap: make([]entry, 0, 256), cancelled: map[uint64]struct{}{}}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events still scheduled to fire: the
// queue less its cancelled entries.
func (s *Scheduler) Pending() int { return s.QueueLen() - len(s.cancelled) }

// QueueLen reports the length of heap plus lane plus the armed arrival,
// cancelled entries included: they leave in their turn.
func (s *Scheduler) QueueLen() int {
	n := len(s.heap) + len(s.lane) - s.head
	if s.arrival.seq != 0 {
		n++
	}
	return n
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) or at NaN is an error in a discrete-event simulation and panics: it
// always indicates a protocol bug, never a recoverable condition.
func (s *Scheduler) At(t Time, fn func()) EventID {
	en := s.timer(t, fn)
	s.push(en)
	return en.EventID
}

// Arrive schedules fn to run at absolute time t exactly as At does — same
// checks, same place in the firing order — for an arrival stream that keeps
// one event armed: the event waits in the arrival slot, or in the heap when
// the slot is already full.
func (s *Scheduler) Arrive(t Time, fn func()) EventID {
	en := s.timer(t, fn)
	if s.arrival.seq == 0 {
		s.arrival = en
	} else {
		s.push(en)
	}
	return en.EventID
}

// timer checks a function event for t and gives it the next seq.
func (s *Scheduler) timer(t Time, fn func()) entry {
	if !(t >= s.now) {
		panic(fmt.Sprintf("sim: schedule at %v, not at or after now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	s.seq++
	return entry{EventID: EventID{t, s.seq}, fn: fn}
}

// After schedules fn to run d seconds from now. A negative or NaN d panics.
func (s *Scheduler) After(d Duration, fn func()) EventID {
	checkDelay(d)
	return s.At(s.now.Add(d), fn)
}

// checkDelay panics on a delay that is negative or NaN.
func checkDelay(d Duration) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: delay %v is negative or NaN", d))
	}
}

// Post schedules message ref for Deliver d seconds from now: in the lane
// when it is due no earlier than the lane's tail — always, under a constant
// hop delay — and in the heap when a latency model reorders it.
func (s *Scheduler) Post(d Duration, ref uint32) EventID {
	checkDelay(d)
	s.seq++
	en := entry{EventID: EventID{s.now.Add(d), s.seq}, ref: ref}
	if n := len(s.lane); n > s.head && en.at < s.lane[n-1].at {
		s.push(en)
	} else {
		s.lane = append(s.lane, en) // amortized: popFrom slides the lane back down its array
	}
	return en.EventID
}

// Cancel keeps a scheduled event from running. It reports whether the
// event was still pending: a zero, fired or already cancelled handle is a
// no-op. The entry stays queued until its turn; Pending excludes it at
// once.
func (s *Scheduler) Cancel(id EventID) bool {
	if id.seq == 0 || !s.out.before(id) {
		return false
	}
	if _, dup := s.cancelled[id.seq]; dup {
		return false
	}
	s.cancelled[id.seq] = struct{}{}
	return true
}

// Where an entry is queued: the lane, the heap or the arrival slot.
const (
	inLane = iota
	inHeap
	inSlot
)

// popFrom removes and returns the head of the structure that in names.
func (s *Scheduler) popFrom(in int) entry {
	switch in {
	case inHeap:
		return s.pop()
	case inSlot:
		en := s.arrival
		s.arrival = entry{}
		return en
	}
	en := s.lane[s.head]
	s.head++
	if s.head >= 32 && 2*s.head >= len(s.lane) {
		// Slide the live half back to the front — one entry moved per pop
		// on average, 32 pops apart at least — so the array is reused.
		n := copy(s.lane, s.lane[s.head:])
		clear(s.lane[n:])
		s.lane, s.head = s.lane[:n], 0
	}
	return en
}

// push appends en and sifts it up to its heap position. The sift loops are
// hand-inlined rather than going through container/heap, whose interface
// calls at every level cost a third of the per-event budget.
func (s *Scheduler) push(en entry) {
	h := append(s.heap, en)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].before(en.EventID) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
	s.heap = h
}

// pop removes and returns the earliest heap entry.
//
// The removal uses the bottom-up ("sink then sift up") scheme: the last
// slot's entry — almost always near-maximal, since late slots hold
// recently pushed far-future events — is not compared on the way down.
// The root hole sinks along the min-child path to a leaf at one
// comparison per level (a plain sift-down pays two), the displaced entry
// drops into the leaf hole, and a sift-up (usually zero steps) fixes the
// rare case where it belonged higher. Pop order is decided entirely by
// the (at, seq) total order, so the scheme cannot change any simulation
// output.
func (s *Scheduler) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	en := h[n]
	h[n] = entry{}
	h = h[:n]
	s.heap = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c].EventID) {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if h[p].before(en.EventID) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = en
	return top
}

// Step fires the next event. It reports false when none is pending.
func (s *Scheduler) Step() bool {
	fired, _ := s.step(Infinity, false)
	return fired
}

// StepBy fires the next event if it is due by t, reporting whether one
// fired: the run loop's one entrance. Like Run it enforces the event
// budget exactly — ErrEventBudget, and nothing fired, only when an event
// is due.
func (s *Scheduler) StepBy(t Time) (bool, error) { return s.step(t, true) }

// step fires the earliest event if it is due by t and, with budget, if
// MaxEvents allows one more. Cancelled entries due by t leave on the way,
// each advancing the clock to its time like a fired one; one due after t
// stays, so the clock and out never pass t.
func (s *Scheduler) step(t Time, budget bool) (bool, error) {
	for {
		// The earliest of the three heads: the lane's, the heap's root and
		// the arrival slot's.
		var next *entry
		in := inLane
		if s.head < len(s.lane) {
			next = &s.lane[s.head]
		}
		if len(s.heap) > 0 && (next == nil || s.heap[0].before(next.EventID)) {
			next, in = &s.heap[0], inHeap
		}
		if s.arrival.seq != 0 && (next == nil || s.arrival.before(next.EventID)) {
			next, in = &s.arrival, inSlot
		}
		if next == nil || next.at > t {
			return false, nil
		}
		seq, dead := next.seq, false
		if len(s.cancelled) > 0 {
			_, dead = s.cancelled[seq]
		}
		if !dead && budget && s.MaxEvents > 0 && s.Executed >= s.MaxEvents {
			return false, ErrEventBudget
		}
		en := s.popFrom(in)
		s.now, s.out = en.at, en.EventID
		if dead {
			delete(s.cancelled, seq)
			continue
		}
		s.Executed++
		if en.fn != nil {
			en.fn()
		} else {
			s.Deliver(en.ref)
		}
		return true, nil
	}
}

// AdvanceTo moves the clock forward to t without firing events; a t in
// the past or Infinity is ignored. Drivers use it to close out a run at
// its configured end time after the last event fires.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now && t != Infinity {
		s.now = t
	}
}

// Run executes events until the queue drains or the event budget is hit:
// exactly MaxEvents events fire before ErrEventBudget.
func (s *Scheduler) Run() error {
	return s.RunUntil(Infinity)
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled after the deadline remain queued. Like
// Run, it enforces the event budget exactly.
func (s *Scheduler) RunUntil(deadline Time) error {
	for {
		fired, err := s.StepBy(deadline)
		if err != nil {
			return err
		}
		if !fired {
			break
		}
	}
	s.AdvanceTo(deadline)
	return nil
}
