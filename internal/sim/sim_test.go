package sim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerStartsAtZero(t *testing.T) {
	s := NewScheduler()
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{5, 1, 3, 2, 4} {
		at := at
		s.At(at, func() { got = append(got, at) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
	if s.Now() != 5 {
		t.Fatalf("final Now() = %v, want 5", s.Now())
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO at %d: got %d", i, v)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := NewScheduler()
	var fired Time
	s.At(10, func() {
		s.After(5, func() { fired = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 15 {
		t.Fatalf("After fired at %v, want 15", fired)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil event function did not panic")
		}
	}()
	NewScheduler().At(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewScheduler().After(-1, func() {})
}

func TestCancelPreventsExecution(t *testing.T) {
	s := NewScheduler()
	ran := false
	id := s.At(3, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel returned true")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestCancelZeroIDIsNoop(t *testing.T) {
	s := NewScheduler()
	if s.Cancel(EventID{}) {
		t.Fatal("Cancel of zero ID returned true")
	}
}

func TestCancelStaleHandleAfterReuse(t *testing.T) {
	s := NewScheduler()
	stale := s.At(1, func() {})
	if err := s.Run(); err != nil { // fires and recycles the entry
		t.Fatal(err)
	}
	ran := false
	fresh := s.At(2, func() { ran = true }) // reuses the recycled entry
	if fresh.e != stale.e {
		t.Skip("free list did not reuse the entry") // allocation fallback; nothing to check
	}
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a reused entry")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("reused event did not run")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	if err := s.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Fatalf("after Run fired %d events, want 5", len(fired))
	}
}

// RunUntil(Infinity) must return once the queue drains instead of
// spinning on the Infinity <= Infinity comparison.
func TestRunUntilInfinityTerminates(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1, func() { fired++ })
	if err := s.RunUntil(Infinity); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if s.Now() != 1 {
		t.Fatalf("Now() = %v, want 1 (Infinity must not advance the clock)", s.Now())
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := NewScheduler()
	if err := s.RunUntil(42); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", s.Now())
	}
}

func TestEventBudget(t *testing.T) {
	s := NewScheduler()
	s.MaxEvents = 10
	var rearm func()
	rearm = func() { s.After(1, rearm) }
	rearm()
	if err := s.Run(); err != ErrEventBudget {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
}

// The budget is exact: precisely MaxEvents events fire before
// ErrEventBudget, and a schedule that fits the budget exactly completes
// without error (regression for the off-by-one that let MaxEvents+1
// events execute).
func TestEventBudgetExact(t *testing.T) {
	s := NewScheduler()
	s.MaxEvents = 10
	var rearm func()
	rearm = func() { s.After(1, rearm) }
	rearm()
	if err := s.Run(); err != ErrEventBudget {
		t.Fatalf("Run = %v, want ErrEventBudget", err)
	}
	if s.Executed != 10 {
		t.Fatalf("Executed = %d, want exactly MaxEvents = 10", s.Executed)
	}

	s = NewScheduler()
	s.MaxEvents = 10
	fired := 0
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() { fired++ })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run with schedule == budget errored: %v", err)
	}
	if fired != 10 {
		t.Fatalf("fired = %d, want 10", fired)
	}

	s = NewScheduler()
	s.MaxEvents = 3
	for i := 0; i < 10; i++ {
		s.At(Time(i), func() {})
	}
	if err := s.RunUntil(100); err != ErrEventBudget {
		t.Fatalf("RunUntil = %v, want ErrEventBudget", err)
	}
	if s.Executed != 3 {
		t.Fatalf("RunUntil Executed = %d, want exactly 3", s.Executed)
	}
}

// Pending excludes lazily-cancelled entries: Cancel-then-Pending sees
// the count drop immediately, before the queue drains the entry.
func TestPendingExcludesCancelled(t *testing.T) {
	s := NewScheduler()
	ids := make([]EventID, 8)
	for i := range ids {
		ids[i] = s.At(Time(i+1), func() {})
	}
	if s.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", s.Pending())
	}
	for i := 0; i < 3; i++ {
		if !s.Cancel(ids[i]) {
			t.Fatalf("Cancel %d returned false", i)
		}
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending after 3 cancels = %d, want 5", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 || s.Executed != 5 {
		t.Fatalf("after Run: Pending = %d, Executed = %d, want 0 and 5",
			s.Pending(), s.Executed)
	}
}

// Cancel-heavy workloads must not leak cancelled entries until drain:
// bulk compaction keeps the physical queue proportional to the pending
// count.
func TestCancelHeavyCompaction(t *testing.T) {
	s := NewScheduler()
	const n = 100_000
	ids := make([]EventID, n)
	for i := range ids {
		ids[i] = s.At(Time(i+1), func() {})
	}
	peak := s.QueueLen()
	if peak != n {
		t.Fatalf("QueueLen = %d, want %d", peak, n)
	}
	for _, id := range ids {
		s.Cancel(id)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
	if s.QueueLen() >= compactFloor {
		t.Fatalf("QueueLen = %d after cancelling all %d: compaction did not shrink the queue",
			s.QueueLen(), n)
	}
	if s.Step() {
		t.Fatal("Step fired a cancelled event")
	}
}

// A message cancelled while it sits in the lane leaves Pending at once
// and the lane when its turn comes; messages around it keep their order.
func TestPendingExcludesCancelledInLane(t *testing.T) {
	s := NewScheduler()
	var got []uint32
	s.Deliver = func(ref uint32) { got = append(got, ref) }
	ids := make([]EventID, 8)
	for i := range ids {
		ids[i] = s.Post(1, uint32(i))
	}
	if len(s.queue) != 0 || s.Pending() != 8 {
		t.Fatalf("heap holds %d of 8 constant-delay messages, Pending = %d", len(s.queue), s.Pending())
	}
	for _, i := range []int{0, 3, 7} {
		if !s.Cancel(ids[i]) || s.Cancel(ids[i]) {
			t.Fatalf("Cancel of message %d: want true once, then false", i)
		}
	}
	if s.Pending() != 5 || s.QueueLen() != 8 {
		t.Fatalf("after 3 cancels: Pending = %d, QueueLen = %d, want 5 and 8", s.Pending(), s.QueueLen())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	if s.Pending() != 0 || s.QueueLen() != 0 || s.Executed != 5 {
		t.Fatalf("after Run: Pending = %d, QueueLen = %d, Executed = %d", s.Pending(), s.QueueLen(), s.Executed)
	}
}

// Each structure bounds its own cancelled entries against its own length:
// cancellations sitting in the lane neither trip the heap's compaction
// nor hide from the lane's, and closing the lane up keeps its order.
func TestCancelHeavyCompactionInLane(t *testing.T) {
	s := NewScheduler()
	var got []uint32
	s.Deliver = func(ref uint32) { got = append(got, ref) }
	const timers, msgs = 100, 1000
	timerIDs := make([]EventID, timers)
	for i := range timerIDs {
		timerIDs[i] = s.At(Time(10+i), func() {})
	}
	msgIDs := make([]EventID, msgs)
	for i := range msgIDs {
		msgIDs[i] = s.Post(1, uint32(i))
	}
	// 400 dead messages outnumber the whole heap four to one, yet are
	// under half the lane: nothing may compact, whichever side is asked.
	for i := 0; i < 400; i++ {
		s.Cancel(msgIDs[2*i])
	}
	s.Cancel(timerIDs[0])
	if len(s.queue) != timers || s.QueueLen() != timers+msgs {
		t.Fatalf("heap %d, queue %d: compacted below the threshold", len(s.queue), s.QueueLen())
	}
	if s.cancelled != [2]int{inHeap: 1, inLane: 400} {
		t.Fatalf("cancelled per structure = %v", s.cancelled)
	}
	// Past half the lane, the lane — and only the lane — closes up.
	for i := 400; i <= 500; i++ {
		s.Cancel(msgIDs[2*i-1])
	}
	if lane := s.QueueLen() - len(s.queue); len(s.queue) != timers || lane != msgs-501 {
		t.Fatalf("heap %d, lane %d after 501 lane cancels, want %d and %d", len(s.queue), lane, timers, msgs-501)
	}
	if s.cancelled != [2]int{inHeap: 1} || s.Pending() != timers-1+msgs-501 {
		t.Fatalf("cancelled = %v, Pending = %d", s.cancelled, s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != msgs-501 || !slices.IsSorted(got) {
		t.Fatalf("%d messages delivered (want %d), in order: %v", len(got), msgs-501, slices.IsSorted(got))
	}
	// All of them cancelled: the lane empties without a single fire.
	for i := range msgIDs {
		msgIDs[i] = s.Post(1, uint32(i))
	}
	for _, id := range msgIDs {
		s.Cancel(id)
	}
	if s.QueueLen() >= compactFloor || s.Pending() != 0 || s.Step() {
		t.Fatalf("QueueLen = %d, Pending = %d after cancelling every message", s.QueueLen(), s.Pending())
	}
}

// One timer far out must not hold the lane shut: timers never enter it,
// so the constant-delay messages posted after a 300 s refresh timer still
// queue in the lane and the heap keeps only the timer.
func TestFarTimerDoesNotStarveLane(t *testing.T) {
	s := NewScheduler()
	sent := 0
	s.Deliver = func(uint32) {
		if sent < 1000 {
			sent++
			s.Post(0.05, 0)
		}
		if len(s.queue) > 2 {
			t.Fatalf("message %d: heap holds %d entries", sent, len(s.queue))
		}
	}
	s.After(300, func() {})
	for i := 0; i < 8; i++ { // eight hop chains in flight
		s.Post(0.05, 0)
	}
	if err := s.RunUntil(299); err != nil {
		t.Fatal(err)
	}
	if sent != 1000 || s.Pending() != 1 || len(s.queue) != 1 {
		t.Fatalf("sent %d, Pending %d, heap %d", sent, s.Pending(), len(s.queue))
	}
}

// A latency model that reorders costs the lane, never the order: a
// message due before the lane's tail goes to the heap and still fires
// first.
func TestReorderedMessageFallsBackToHeap(t *testing.T) {
	s := NewScheduler()
	var got []uint32
	s.Deliver = func(ref uint32) { got = append(got, ref) }
	s.Post(9, 0)
	s.Post(2, 1) // due before the tail: heap
	s.Post(9, 2) // tied with the tail: lane, after it
	s.At(9, func() { got = append(got, 3) })
	if len(s.queue) != 2 {
		t.Fatalf("heap holds %d entries, want the reordered message and the timer", len(s.queue))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// The hot path is allocation-free in steady state: fired events return
// to the free list and are reused by later schedules. It holds through
// either entrance — Step, and StepBy with an event budget, the run loop's —
// and with timers resident in the heap that are cancelled and re-armed,
// so cancelled entries pile up and are compacted (a heap rebuild) every
// few hundred events.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	fn := func() {}
	steps := []struct {
		name string
		step func(s *Scheduler)
	}{
		{"Step", func(s *Scheduler) { s.Step() }},
		{"StepBy", func(s *Scheduler) { _, _ = s.StepBy(s.Now() + 1) }},
	}
	for _, st := range steps {
		for _, resident := range []int{0, 128} {
			s := NewScheduler()
			s.MaxEvents = math.MaxUint64
			timers := make([]EventID, resident)
			i := 0
			event := func() {
				if resident > 0 {
					s.Cancel(timers[i%resident])
					timers[i%resident] = s.At(1e12, fn)
					i++
				}
				s.After(1, fn)
				st.step(s)
			}
			for j := range timers {
				timers[j] = s.At(1e12, fn)
			}
			for j := 0; j < 1024; j++ { // warm the heap and free list, through compactions
				event()
			}
			if allocs := testing.AllocsPerRun(10_000, event); allocs != 0 {
				t.Errorf("%s, %d resident timers: steady-state allocations per event = %v, want 0", st.name, resident, allocs)
			}
		}
	}
}

// The message path is allocation-free in steady state too: the lane
// slides back down its array instead of growing, with one message in
// flight or a thousand.
func TestSchedulerSteadyStateAllocsMessages(t *testing.T) {
	for _, inFlight := range []int{0, 1000} {
		s := NewScheduler()
		s.Deliver = func(uint32) {}
		for i := 0; i < 2048; i++ { // warm the lane and free list
			s.Post(1, 0)
		}
		for s.Pending() > inFlight {
			s.Step()
		}
		allocs := testing.AllocsPerRun(10_000, func() {
			s.Post(1, 7)
			s.Step()
		})
		if allocs != 0 {
			t.Errorf("%d in flight: steady-state allocations per message = %v, want 0", inFlight, allocs)
		}
	}
}

func TestEverySchedulesPeriodically(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.Every(10, 55, func() { ticks = append(ticks, s.Now()) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30, 40, 50}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestEveryStop(t *testing.T) {
	s := NewScheduler()
	n := 0
	var stop func()
	stop = s.Every(1, 0, func() {
		n++
		if n == 3 {
			stop()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
}

func TestEveryZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	NewScheduler().Every(0, 0, func() {})
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		s := NewScheduler()
		r := NewRand(42)
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			s.At(Time(r.Float64()*100), func() { order = append(order, i) })
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of (non-negative) times, Run fires events in
// non-decreasing time order and fires them all.
func TestPropertyOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler()
		var fired []Time
		for _, v := range raw {
			at := Time(v)
			s.At(at, func() { fired = append(fired, at) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(raw) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Pending reflects schedule/cancel/fire bookkeeping exactly.
func TestPropertyPendingCount(t *testing.T) {
	f := func(n uint8, cancels uint8) bool {
		s := NewScheduler()
		ids := make([]EventID, 0, n)
		for i := 0; i < int(n); i++ {
			ids = append(ids, s.At(Time(i), func() {}))
		}
		c := int(cancels)
		if c > len(ids) {
			c = len(ids)
		}
		for i := 0; i < c; i++ {
			s.Cancel(ids[i])
		}
		return s.Pending() == int(n)-c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	tm := Time(10).Add(Duration(5))
	if tm != 15 {
		t.Fatalf("Add = %v, want 15", tm)
	}
	if d := Time(15).Sub(Time(10)); d != 5 {
		t.Fatalf("Sub = %v, want 5", d)
	}
	if Infinity <= Time(math.MaxFloat64/2) {
		t.Fatal("Infinity is not large")
	}
}

func TestExpDistribution(t *testing.T) {
	r := NewRand(1)
	const rate = 2.0
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := float64(r.Exp(rate))
		if d < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("mean = %v, want ≈ %v", mean, 1/rate)
	}
}

func TestExpInvalidRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	NewRand(1).Exp(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRand(7)
	if r.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %v", p)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRand(3)
	z := r.NewZipf(1.2, 100)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfInvalidNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewZipf(n=0) did not panic")
		}
	}()
	NewRand(1).NewZipf(1.5, 0)
}

func TestJitter(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 1000; i++ {
		d := r.Jitter(100, 0.1)
		if d < 90 || d > 110 {
			t.Fatalf("Jitter out of band: %v", d)
		}
	}
	if r.Jitter(100, 0) != 100 {
		t.Fatal("Jitter with f=0 changed value")
	}
}

func TestRound(t *testing.T) {
	cases := map[float64]int{0.4: 0, 0.5: 1, 1.49: 1, 2.5: 3, -0.4: 0}
	for in, want := range cases {
		if got := Round(in); got != want {
			t.Errorf("Round(%v) = %d, want %d", in, got, want)
		}
	}
}

// BenchmarkScheduler exercises the timer-churn hot path: each iteration
// schedules a kept timer and a decoy, cancels the decoy, and fires one
// event — the pattern refresh loops and piggyback windows generate.
// Steady-state allocations per scheduled event must stay ≤ 1 (they are 0:
// entries come from the free list; the closure is created once).
//
// The lane/heap pairs are the message path: a constant hop delay with 1,
// 64 and 1,024 messages in flight, posted through Post (every one lands
// in the lane) against the same load scheduled through At (the heap, as
// every hop was before the lane). Run with -cpu 1.
func BenchmarkScheduler(b *testing.B) {
	fn := func() {}
	b.Run("timer-churn", func(b *testing.B) {
		s := NewScheduler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(1, fn)
			decoy := s.After(2, fn)
			s.Cancel(decoy)
			s.Step()
		}
	})
	for _, pending := range []int{1, 64, 1024} {
		for _, lane := range []bool{true, false} {
			name := fmt.Sprintf("heap/pending=%d", pending)
			if lane {
				name = fmt.Sprintf("lane/pending=%d", pending)
			}
			b.Run(name, func(b *testing.B) {
				s := NewScheduler()
				s.Deliver = func(uint32) {}
				schedule := func() { s.At(s.Now().Add(1), fn) }
				if lane {
					schedule = func() { s.Post(1, 0) }
				}
				for i := 1; i < pending; i++ {
					schedule()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					schedule()
					s.Step()
				}
			})
		}
	}
}

func BenchmarkSchedulerThroughput(b *testing.B) {
	s := NewScheduler()
	var rearm func()
	n := 0
	rearm = func() {
		n++
		if n < b.N {
			s.After(1, rearm)
		}
	}
	s.After(1, rearm)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
