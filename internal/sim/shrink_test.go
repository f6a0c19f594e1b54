package sim

import "testing"

// A burst grows the free list to burst peak; a long quiet phase must
// release it instead of pinning peak-size memory for the rest of the
// run (ROADMAP: free-list shrinking).
func TestFreeListShrinksAfterBurstThenQuiet(t *testing.T) {
	s := NewScheduler()
	const burst = 50_000
	for i := 0; i < burst; i++ {
		s.At(Time(1+i%97), func() {})
	}
	if s.HighWater() < burst {
		t.Fatalf("high-water mark %d after scheduling %d events", s.HighWater(), burst)
	}
	// Mid-burst the pool is at its largest; probe it while the queue is
	// still near peak, before the drain tail ratchets it down.
	peak := 0
	s.At(0.5, func() { peak = s.FreeLen() + s.QueueLen() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if peak < burst {
		t.Fatalf("pool+queue peaked at %d, want ≥ %d", peak, burst)
	}
	// The drain tail spends most of its fires far below the high-water
	// mark, so the pool ratchets down with the queue instead of holding
	// the burst peak.
	if got := s.FreeLen(); got > burst/4 {
		t.Fatalf("free list still holds %d entries after the drain, want ≤ %d", got, burst/4)
	}

	// Quiet phase: a self-rearming timer keeps the queue at depth 1, far
	// below the high-water mark. After shrinkQuiet consecutive
	// low-occupancy fires the pool must drop to steady-state size.
	var rearm func()
	fires := 0
	rearm = func() {
		fires++
		if fires < shrinkQuiet+8 {
			s.After(1, rearm)
		}
	}
	s.After(1, rearm)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeLen(); got > initialQueueCap {
		t.Fatalf("free list still holds %d entries after the quiet phase, want ≤ %d",
			got, initialQueueCap)
	}
	if hw := s.HighWater(); hw > 2 {
		t.Fatalf("high-water mark %d not re-anchored after shrink", hw)
	}
}

// A steady workload that never dips far below its high-water mark must
// never shrink: the hot path stays allocation-free.
func TestSteadyWorkloadNeverShrinks(t *testing.T) {
	s := NewScheduler()
	// Constant queue depth ~32: each fire schedules a successor.
	var spawn func()
	spawn = func() {
		if s.Executed < 4*shrinkQuiet {
			s.After(1, spawn)
		}
	}
	for i := 0; i < 32; i++ {
		s.After(1, spawn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Post-drain the queue is empty, so the final fires do count as
	// quiet — but with a high-water mark of ~33 the retained floor
	// (initialQueueCap) is never undercut.
	if got := s.FreeLen(); got > initialQueueCap {
		t.Fatalf("steady workload grew the pool to %d", got)
	}
	if s.Executed < 4*shrinkQuiet {
		t.Fatalf("workload ended early: %d fires", s.Executed)
	}
}

// Shrinking recycles entries whose handles are already stale; a Cancel
// through such a handle after the entry left the pool must stay a no-op.
func TestCancelAfterShrinkIsNoop(t *testing.T) {
	s := NewScheduler()
	ids := make([]EventID, 0, 4096)
	for i := 0; i < 4096; i++ {
		ids = append(ids, s.At(Time(1+i), func() {}))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var rearm func()
	fires := 0
	rearm = func() {
		fires++
		if fires < shrinkQuiet+8 {
			s.After(1, rearm)
		}
	}
	s.After(1, rearm)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if s.Cancel(id) {
			t.Fatal("stale handle cancelled an event after free-list shrink")
		}
	}
}

// The lane-side twin of the burst-then-quiet test: a burst of messages
// grows the pool through the lane, and the quiet phase after it — one
// hop chain, a message at a time — releases it the same way.
func TestFreeListShrinksAfterBurstThenQuietThroughLane(t *testing.T) {
	s := NewScheduler()
	const burst = 50_000
	fires := 0
	s.Deliver = func(ref uint32) {
		if ref == 1 {
			if fires++; fires < shrinkQuiet+8 {
				s.Post(1, 1)
			}
		}
	}
	for i := 0; i < burst; i++ {
		s.Post(1, 0)
	}
	if len(s.queue) != 0 || s.HighWater() < burst {
		t.Fatalf("heap %d, high-water mark %d after posting %d messages", len(s.queue), s.HighWater(), burst)
	}
	peak := 0
	s.At(0.5, func() { peak = s.FreeLen() + s.QueueLen() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if peak < burst {
		t.Fatalf("pool+queue peaked at %d, want ≥ %d", peak, burst)
	}
	if got := s.FreeLen(); got > burst/4 {
		t.Fatalf("free list still holds %d entries after the drain, want ≤ %d", got, burst/4)
	}
	s.Post(1, 1)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeLen(); got > initialQueueCap {
		t.Fatalf("free list still holds %d entries after the quiet phase, want ≤ %d", got, initialQueueCap)
	}
	if hw := s.HighWater(); hw > 2 {
		t.Fatalf("high-water mark %d not re-anchored after shrink", hw)
	}
}
