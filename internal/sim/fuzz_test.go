package sim

import "testing"

// FuzzScheduler drives random schedule/cancel/step/run interleavings
// against a reference model, pinning the invariants of an EventID that
// is the event's (time, seq) place in the firing order, and of the set
// of cancelled seqs still queued:
//
//   - Cancel returns true exactly once, and only while the event is
//     still pending; handles to fired or cancelled events are no-ops.
//   - Every non-cancelled event fires exactly once, at its scheduled
//     time, and in (time, scheduling order) — ties included — whichever
//     of the three entrances scheduled it: a timer through At always sits
//     in the heap, a message through Post in the lane or, when it is due
//     before the lane's tail, the heap, and an arrival through Arrive in
//     the arrival slot or, while the slot is full, the heap.
//   - Now never decreases: a cancelled entry leaves in its turn, never
//     before it is due.
//   - Pending always matches the model (cancelled entries excluded
//     immediately, even while they sit in the queue awaiting their
//     turn), and the physical queue never undercounts it.
//
// CI runs a short -fuzz pass over this harness; the committed corpus
// keeps regressions deterministic.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 2, 1, 0, 2, 2})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 1, 1, 1, 3, 7, 0, 4, 2, 2, 2})
	f.Add([]byte{3, 200, 0, 15, 0, 15, 1, 0, 1, 0, 3, 16})
	// Churn shape: bursts of schedules, cancels of arbitrary (often
	// stale) handles, then drains.
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 2, 2, 1, 200, 1, 3, 0, 2, 1, 0, 3, 31, 1, 9})
	// testdata/fuzz/FuzzScheduler holds four more: a timer and a message
	// tied at one instant in both scheduling orders beside a reordered
	// message, a cancel of a message sitting in the lane, a cancelled
	// message due past a RunUntil deadline with an event scheduled before
	// it afterwards, and an arrival, a timer and a message tied at one
	// instant in each of the six scheduling orders, one arrival cancelled
	// while it waits in the slot.

	f.Fuzz(func(t *testing.T, prog []byte) {
		s := NewScheduler()
		type rec struct {
			at        Time
			fired     bool
			cancelled bool
		}
		var evs []*rec // in scheduling order
		var handles []EventID

		fire := func(j int) {
			r := evs[j]
			if r.fired {
				t.Fatal("event fired twice")
			}
			if r.cancelled {
				t.Fatal("cancelled event fired")
			}
			r.fired = true
			if s.Now() != r.at {
				t.Fatalf("fired at %v, scheduled for %v", s.Now(), r.at)
			}
			for i, o := range evs {
				if !o.fired && !o.cancelled && (o.at < r.at || (o.at == r.at && i < j)) {
					t.Fatalf("event #%d due %v fired before #%d due %v", j, r.at, i, o.at)
				}
			}
		}
		s.Deliver = func(ref uint32) { fire(int(ref)) }
		// schedule reads one byte: the delay in its low four bits, the
		// entrance in the next two — Post when bit 4 is set, else Arrive
		// when bit 5 is, else At.
		schedule := func(b byte) {
			j, d := len(evs), Duration(b%16)
			evs = append(evs, &rec{at: s.Now().Add(d)})
			switch {
			case b&16 != 0:
				handles = append(handles, s.Post(d, uint32(j)))
			case b&32 != 0:
				handles = append(handles, s.Arrive(evs[j].at, func() { fire(j) }))
			default:
				handles = append(handles, s.At(evs[j].at, func() { fire(j) }))
			}
		}
		modelPending := func() int {
			n := 0
			for _, r := range evs {
				if !r.fired && !r.cancelled {
					n++
				}
			}
			return n
		}
		var last Time
		check := func() {
			if s.Now() < last {
				t.Fatalf("Now() went back from %v to %v", last, s.Now())
			}
			last = s.Now()
			if got, want := s.Pending(), modelPending(); got != want {
				t.Fatalf("Pending() = %d, model says %d", got, want)
			}
			if s.QueueLen() < s.Pending() {
				t.Fatalf("QueueLen() %d below Pending() %d", s.QueueLen(), s.Pending())
			}
		}

		i := 0
		next := func() byte {
			if i >= len(prog) {
				return 0
			}
			b := prog[i]
			i++
			return b
		}
		for i < len(prog) {
			switch next() % 4 {
			case 0: // schedule a future event
				schedule(next())
			case 1: // cancel an arbitrary (possibly stale) handle
				if len(handles) == 0 {
					continue
				}
				j := int(next()) % len(handles)
				r := evs[j]
				want := !r.fired && !r.cancelled
				if got := s.Cancel(handles[j]); got != want {
					t.Fatalf("Cancel(#%d) = %v, model says %v (fired=%v cancelled=%v)",
						j, got, want, r.fired, r.cancelled)
				}
				if want {
					r.cancelled = true
				}
			case 2: // fire the next event
				before := modelPending()
				stepped := s.Step()
				if stepped != (before > 0) {
					t.Fatalf("Step() = %v with %d pending", stepped, before)
				}
				if stepped && modelPending() != before-1 {
					t.Fatalf("Step() fired %d events, want exactly 1", before-modelPending())
				}
			case 3: // drain a bounded window
				deadline := s.Now().Add(Duration(next() % 8))
				if err := s.RunUntil(deadline); err != nil {
					t.Fatalf("RunUntil: %v", err)
				}
				if s.Now() != deadline {
					t.Fatalf("Now() = %v after RunUntil(%v)", s.Now(), deadline)
				}
				for j, r := range evs {
					if r.cancelled {
						continue
					}
					if r.at <= deadline && !r.fired {
						t.Fatalf("event #%d due %v unfired after RunUntil(%v)", j, r.at, deadline)
					}
				}
			}
			check()
		}

		// Final drain: everything still pending fires, then every handle
		// — fired or cancelled — must be a Cancel no-op.
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		check()
		for _, r := range evs {
			if !r.fired && !r.cancelled {
				t.Fatal("event lost: neither fired nor cancelled after drain")
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("Pending() = %d after drain", s.Pending())
		}
		fired := 0
		for _, r := range evs {
			if r.fired {
				fired++
			}
		}
		if s.Executed != uint64(fired) {
			t.Fatalf("Executed = %d, model fired %d", s.Executed, fired)
		}
		for j := range handles {
			if s.Cancel(handles[j]) {
				t.Fatalf("stale handle #%d cancelled something after drain", j)
			}
		}
	})
}
