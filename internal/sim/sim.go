// Package sim provides a deterministic discrete-event simulation engine.
//
// It is the reproduction's substitute for the Stanford Narses simulator used
// in the CUP paper: a virtual clock, an event queue that fires in (time,
// scheduling order), and helpers for periodic processes. All experiments in
// this repository are driven by a Scheduler; determinism (same seed, same
// schedule, same results) is a hard requirement so that the paper's tables
// regenerate reproducibly.
//
// The queue is two structures under one order. Timers (At, After: a func()
// at any time) sit in a binary heap. Messages (Post: a reference for the
// run's Deliver function) fall due one hop delay from now, so under the
// paper's constant delay they arrive sorted: Post appends to a FIFO — the
// lane — unless the message is due before the lane's tail (a latency model
// reordered it), and Step takes the smaller head. Timers never enter the
// lane, so one 300 s out cannot block it.
//
// The hot path is allocation-free in steady state: fired and cancelled
// events return to a free list for reuse, and cancellation is O(1) through
// generation-counted handles instead of a live-event map. Cancelled entries
// are removed lazily — at pop time, or in bulk whenever they outnumber the
// pending ones of their structure — so cancel-heavy workloads cannot grow
// the queue without bound.
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

// EventID is a handle to a scheduled event so it can be cancelled. It
// points directly at the queue entry and carries the entry's generation
// at scheduling time: entries are recycled onto a free list once fired
// or drained, and the generation check makes a stale handle a no-op
// instead of cancelling whatever event reused the entry. The zero
// EventID refers to no event.
type EventID struct {
	e   *event
	gen uint64
}

// event is the pooled, pointer-stable part of a queue entry: the handle
// target. Its generation invalidates outstanding EventIDs when the entry
// is recycled; the ordering keys live inline in the heap or lane
// (heapEntry). A timer carries fn; a message carries ref and a nil fn.
type event struct {
	gen       uint64
	fn        func()
	ref       uint32
	cancelled bool
	in        uint8 // inHeap or inLane: the structure holding the entry
}

// The structures an entry can sit in; they index Scheduler.cancelled.
const inHeap, inLane = 0, 1

// heapEntry is one heap or lane slot. The sort keys (at, seq — seq breaks
// ties so simultaneous events fire in scheduling order, which keeps the
// simulation deterministic) are stored inline next to the event pointer:
// sift comparisons read contiguous array memory and never dereference the
// pooled event object, which at simulation scale (thousands of pending
// events) turns every heap level from a dependent cache miss into a
// streamed load.
type heapEntry struct {
	at  Time
	seq uint64
	e   *event
}

// eventHeap is a binary min-heap ordered by (at, seq). The sift loops are
// hand-inlined rather than going through container/heap: the interface
// indirection (an `any` conversion per Push/Pop plus virtual Less/Swap
// calls at every level) costs ~a third of the per-event budget on the
// hottest loop in the repo, and the heap invariant is only four
// comparisons of two fields.
type eventHeap []heapEntry

// initialQueueCap pre-sizes the heap and free list so short-lived
// schedulers never grow them and long-lived ones grow them once.
const initialQueueCap = 256

// compactFloor is the queue length below which lazily-cancelled entries
// are never compacted in bulk: pop-time draining handles small queues,
// and compacting them would churn for no memory win.
const compactFloor = 64

// shrinkQuiet is how many consecutive fires the queue must spend far
// below its high-water mark (under a quarter of it) before the free
// list is shrunk. Large enough that a momentary dip inside a burst
// never triggers a shrink the next burst would immediately undo.
const shrinkQuiet = 256

// Scheduler is a discrete-event scheduler. It is not safe for concurrent
// use; the live runtime (internal/live) uses real goroutines instead.
// Run independent Schedulers (one per goroutine) for parallel sweeps.
type Scheduler struct {
	now   Time
	queue eventHeap
	seq   uint64
	// lane[head:] is the FIFO beside the heap, in (at, seq) order.
	lane []heapEntry
	head int
	// Deliver receives the reference of each message posted with Post
	// when it falls due; a run sets it once, before its first Post.
	Deliver func(ref uint32)
	// free holds recycled entries for reuse; the hot path allocates only
	// when it is empty.
	free []*event
	// cancelled counts the lazily-cancelled entries still in each structure.
	cancelled [2]int
	// highWater is the largest queue length seen since the last free-list
	// shrink; quiet counts consecutive fires with the queue far below it.
	// Together they release pooled events after a burst-then-quiet phase
	// instead of pinning burst-peak memory forever.
	highWater int
	quiet     int
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

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{queue: make(eventHeap, 0, initialQueueCap)}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events still scheduled to fire.
// Lazily-cancelled entries awaiting removal are excluded: Cancel
// decrements the pending count immediately even though the queue drains
// the entry later.
func (s *Scheduler) Pending() int {
	return s.QueueLen() - s.cancelled[inHeap] - s.cancelled[inLane]
}

// QueueLen reports the physical length of heap plus lane, including lazily-
// cancelled entries not yet drained — the quantity bulk compaction bounds.
func (s *Scheduler) QueueLen() int { return len(s.queue) + len(s.lane) - s.head }

// FreeLen reports the number of pooled entries awaiting reuse — the
// quantity free-list shrinking bounds after a burst-then-quiet phase.
func (s *Scheduler) FreeLen() int { return len(s.free) }

// HighWater reports the largest queue length seen since the last
// free-list shrink.
func (s *Scheduler) HighWater() int { return s.highWater }

// alloc returns a fresh entry, reusing the free list when possible.
func (s *Scheduler) alloc() *event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	// Pool refill: reached only when the free list is empty, i.e. the
	// first time the queue grows past its historical peak.
	return &event{}
}

// recycle invalidates outstanding handles to e and returns it to the
// free list for reuse by a later At.
func (s *Scheduler) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.cancelled = false
	e.in = inHeap
	// Amortized pool growth: capacity chases the queue's peak and is then
	// reused for the rest of the run.
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute time t. Scheduling in the past (before
// Now) is an error in a discrete-event simulation and panics: it always
// indicates a protocol bug, never a recoverable condition.
func (s *Scheduler) At(t Time, fn func()) EventID {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	s.seq++
	e := s.alloc()
	e.fn = fn
	s.push(heapEntry{at: t, seq: s.seq, e: e})
	return s.scheduled(e)
}

// Post schedules message ref for Deliver d seconds from now: in the lane
// when it is due no earlier than the lane's tail — always, under a constant
// hop delay — and in the heap when a latency model reorders it.
func (s *Scheduler) Post(d Duration, ref uint32) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.seq++
	e := s.alloc()
	e.ref = ref
	en := heapEntry{at: s.now.Add(d), seq: s.seq, e: e}
	if n := len(s.lane); n > s.head && en.at < s.lane[n-1].at {
		s.push(en)
	} else {
		e.in = inLane
		s.lane = append(s.lane, en) // amortized: popFrom slides the lane back down its array
	}
	return s.scheduled(e)
}

// scheduled accounts for the entry just queued and returns its handle.
func (s *Scheduler) scheduled(e *event) EventID {
	if n := s.QueueLen(); n > s.highWater {
		s.highWater = n
	}
	return EventID{e: e, gen: e.gen}
}

// laneFirst reports whether the earliest entry sits in the lane rather
// than the heap, under the (at, seq) order the heap keeps.
func (s *Scheduler) laneFirst() bool {
	if s.head == len(s.lane) || len(s.queue) == 0 {
		return s.head < len(s.lane)
	}
	l, h := &s.lane[s.head], &s.queue[0]
	return l.at < h.at || (l.at == h.at && l.seq < h.seq)
}

// popFrom removes and returns the head of the lane (lane) or of the heap.
func (s *Scheduler) popFrom(lane bool) heapEntry {
	if !lane {
		return s.pop()
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

// push appends e and sifts it up to its heap position.
func (s *Scheduler) push(en heapEntry) {
	// Amortized growth: the heap is pre-sized to initialQueueCap and only
	// grows past a workload's all-time peak.
	h := append(s.queue, en)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		q := h[p]
		if q.at < en.at || (q.at == en.at && q.seq < en.seq) {
			break
		}
		h[i] = q
		i = p
	}
	h[i] = en
	s.queue = h
}

// pop removes and returns the earliest entry.
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
func (s *Scheduler) pop() heapEntry {
	h := s.queue
	top := h[0]
	n := len(h) - 1
	en := h[n]
	h[n] = heapEntry{}
	s.queue = h[:n]
	h = s.queue
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n {
				a, b := h[c], h[r]
				if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
					c = r
				}
			}
			h[i] = h[c]
			i = c
		}
		for i > 0 {
			p := (i - 1) / 2
			q := h[p]
			if q.at < en.at || (q.at == en.at && q.seq < en.seq) {
				break
			}
			h[i] = q
			i = p
		}
		h[i] = en
	}
	return top
}

// siftDown restores heap order below position i.
func (s *Scheduler) siftDown(i int) {
	h := s.queue
	n := len(h)
	en := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			a, b := h[c], h[r]
			if b.at < a.at || (b.at == a.at && b.seq < a.seq) {
				c = r
			}
		}
		ch := h[c]
		if en.at < ch.at || (en.at == ch.at && en.seq < ch.seq) {
			break
		}
		h[i] = ch
		i = c
	}
	h[i] = en
}

// After schedules fn to run d seconds from now. Negative d panics.
func (s *Scheduler) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.At(s.now.Add(d), fn)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending. Cancelling an already-fired, already-cancelled, or zero handle
// is a no-op. The entry stays queued until popped or compacted; Pending
// excludes it immediately.
func (s *Scheduler) Cancel(id EventID) bool {
	e := id.e
	if e == nil || e.gen != id.gen || e.cancelled {
		return false
	}
	e.cancelled = true
	s.cancelled[e.in]++
	s.maybeCompact(e.in)
	return true
}

// maybeCompact rebuilds the heap, or closes up the lane, without its
// cancelled entries once they outnumber its pending ones, bounding queue
// growth under cancel-heavy workloads (timer churn would otherwise leak
// entries until drain). The sweep is O(n) against Ω(n) cancellations of
// its own since the last one, so the amortized cost per Cancel is O(1); one
// count for both would let the lane's hold the heap's test true.
func (s *Scheduler) maybeCompact(in uint8) {
	q := s.queue
	if in == inLane {
		q = s.lane[s.head:]
	}
	if len(q) < compactFloor || 2*s.cancelled[in] <= len(q) {
		return
	}
	keep := q[:0]
	for _, en := range q {
		if en.e.cancelled {
			s.recycle(en.e)
			continue
		}
		keep = append(keep, en) // never grows: keep reuses q's backing array
	}
	clear(q[len(keep):])
	s.cancelled[in] = 0
	if in == inLane {
		s.lane = s.lane[:s.head+len(keep)] // order kept: nothing to re-sort
		return
	}
	s.queue = keep
	for i := len(keep)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// Step fires the next event. It reports false when the queue is empty.
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
// MaxEvents allows one more: it looks at the queue's head once and pops
// what it looked at.
func (s *Scheduler) step(t Time, budget bool) (bool, error) {
	for s.QueueLen() > 0 {
		lane := s.laneFirst()
		var en *heapEntry
		if lane {
			en = &s.lane[s.head]
		} else {
			en = &s.queue[0]
		}
		at, e := en.at, en.e
		if e.cancelled {
			s.cancelled[e.in]--
			s.recycle(s.popFrom(lane).e)
			continue
		}
		if at > t {
			return false, nil
		}
		if budget && s.overBudget() {
			return false, ErrEventBudget
		}
		s.popFrom(lane)
		s.now = at
		fn, ref := e.fn, e.ref
		// Recycle before firing: fn may schedule and reuse the entry, and the
		// generation bump has already invalidated handles to the fired event.
		s.recycle(e)
		s.Executed++
		s.maybeShrink()
		if fn != nil {
			fn()
		} else {
			s.Deliver(ref)
		}
		return true, nil
	}
	return false, nil
}

// maybeShrink releases pooled entries once the queue has spent
// shrinkQuiet consecutive fires far below its high-water mark: a burst
// grows the free list to burst peak, and without shrinking a long quiet
// phase would pin that peak-size memory for the rest of the run. The
// retained pool still covers the current queue twice over (never below
// the initial capacity), so a steady workload never shrinks and then
// reallocates — the hot path stays allocation-free.
func (s *Scheduler) maybeShrink() {
	queued := s.QueueLen()
	if 4*queued >= s.highWater {
		s.quiet = 0
		return
	}
	s.quiet++
	if s.quiet < shrinkQuiet {
		return
	}
	s.quiet = 0
	keep := 2 * queued
	if keep < initialQueueCap {
		keep = initialQueueCap
	}
	if len(s.free) > keep {
		if cap(s.free) > 4*keep {
			// The backing array itself is burst-sized; reallocate so it
			// is released along with the dropped entries.
			// Deliberate reallocation: shrinking trades one allocation for
			// releasing a burst-sized backing array.
			s.free = append(make([]*event, 0, keep), s.free[:keep]...)
		} else {
			for i := keep; i < len(s.free); i++ {
				s.free[i] = nil
			}
			s.free = s.free[:keep]
		}
	}
	// Re-anchor the mark at the current occupancy so a workload that
	// settles at a lower plateau can keep ratcheting down.
	s.highWater = queued
}

// AdvanceTo moves the clock forward to t without firing events; a t in
// the past or Infinity is ignored. Drivers use it to close out a run at
// its configured end time after the last event fires.
func (s *Scheduler) AdvanceTo(t Time) {
	if t > s.now && t != Infinity {
		s.now = t
	}
}

// overBudget reports whether firing one more event would exceed MaxEvents.
func (s *Scheduler) overBudget() bool {
	return s.MaxEvents > 0 && s.Executed >= s.MaxEvents
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

// Every schedules fn to run now+d, then every d seconds thereafter, until
// the returned stop function is called or until (if until > 0) virtual time
// passes until.
func (s *Scheduler) Every(d Duration, until Time, fn func()) (stop func()) {
	if d <= 0 {
		panic(fmt.Sprintf("sim: non-positive period %v", d))
	}
	stopped := false
	var rearm func()
	rearm = func() {
		next := s.now.Add(d)
		if until > 0 && next > until {
			return
		}
		s.At(next, func() {
			if stopped {
				return
			}
			fn()
			rearm()
		})
	}
	rearm()
	return func() { stopped = true }
}
