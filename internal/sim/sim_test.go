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

// A NaN time or delay is refused at every entrance, as a past one is: a
// NaN compares false with everything, so a queued one would fire out of
// order and leave Now reading NaN.
func TestNaNTimePanics(t *testing.T) {
	nan := math.NaN()
	fn := func() {}
	entrances := []struct {
		name     string
		schedule func(s *Scheduler)
	}{
		{"At", func(s *Scheduler) { s.At(Time(nan), fn) }},
		{"After", func(s *Scheduler) { s.After(Duration(nan), fn) }},
		{"Post", func(s *Scheduler) { s.Post(Duration(nan), 0) }},
		{"Arrive", func(s *Scheduler) { s.Arrive(Time(nan), fn) }},
	}
	for _, e := range entrances {
		t.Run(e.name, func(t *testing.T) {
			s := NewScheduler()
			s.Deliver = func(uint32) {}
			s.At(5, fn)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s at NaN did not panic", e.name)
					}
				}()
				e.schedule(s)
			}()
			if s.Pending() != 1 || s.QueueLen() != 1 {
				t.Errorf("after the refused %s: Pending = %d, QueueLen = %d, want 1 and 1", e.name, s.Pending(), s.QueueLen())
			}
		})
	}
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
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ran := false
	s.At(2, func() { ran = true })
	if s.Cancel(stale) {
		t.Fatal("stale handle cancelled a later event")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("later event did not run")
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

// Pending excludes cancelled entries: Cancel-then-Pending sees the count
// drop immediately, before the entry leaves the queue in its turn.
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

// A cancelled entry due after a deadline stays queued: taking it early
// would move the last-out place past events scheduled later at an
// earlier time, and Cancel would refuse them (FuzzScheduler found it,
// testdata/fuzz/FuzzScheduler/cancel-past-deadline).
func TestCancelledHeadWaitsForItsTurn(t *testing.T) {
	s := NewScheduler()
	s.Deliver = func(uint32) { t.Fatal("a cancelled message was delivered") }
	if !s.Cancel(s.Post(8, 0)) {
		t.Fatal("Cancel of a queued message returned false")
	}
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 || s.QueueLen() != 1 {
		t.Fatalf("after RunUntil(0): Now = %v, QueueLen = %d, want 0 and 1", s.Now(), s.QueueLen())
	}
	if !s.Cancel(s.At(0, func() { t.Fatal("a cancelled timer fired") })) {
		t.Fatal("Cancel of an event due before a cancelled head returned false")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Executed != 0 || s.Pending() != 0 || s.QueueLen() != 0 {
		t.Fatalf("Executed = %d, Pending = %d, QueueLen = %d, want all 0", s.Executed, s.Pending(), s.QueueLen())
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
	if len(s.heap) != 0 || s.Pending() != 8 {
		t.Fatalf("heap holds %d of 8 constant-delay messages, Pending = %d", len(s.heap), s.Pending())
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
		if len(s.heap) > 2 {
			t.Fatalf("message %d: heap holds %d entries", sent, len(s.heap))
		}
	}
	s.After(300, func() {})
	for i := 0; i < 8; i++ { // eight hop chains in flight
		s.Post(0.05, 0)
	}
	if err := s.RunUntil(299); err != nil {
		t.Fatal(err)
	}
	if sent != 1000 || s.Pending() != 1 || len(s.heap) != 1 {
		t.Fatalf("sent %d, Pending %d, heap %d", sent, s.Pending(), len(s.heap))
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
	if len(s.heap) != 2 {
		t.Fatalf("heap holds %d entries, want the reordered message and the timer", len(s.heap))
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// An arrival waits in the slot; a second one armed while the slot is full
// falls back to the heap, and the two fire in (at, seq) order with the
// timers and messages around them, ties included.
func TestSecondArrivalFallsBackToHeap(t *testing.T) {
	s := NewScheduler()
	var got []string
	s.Deliver = func(ref uint32) { got = append(got, fmt.Sprint("message ", ref)) }
	s.Arrive(4, func() { got = append(got, "first arrival") })
	s.At(4, func() { got = append(got, "timer") })
	s.Arrive(2, func() { got = append(got, "second arrival") })
	s.Post(4, 0)
	if s.arrival.at != 4 || len(s.heap) != 2 || s.QueueLen() != 4 || s.Pending() != 4 {
		t.Fatalf("slot holds the arrival at %v, heap %d entries, QueueLen %d, Pending %d; want 4, 2, 4, 4",
			s.arrival.at, len(s.heap), s.QueueLen(), s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"second arrival", "first arrival", "timer", "message 0"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %q, want %q", got, want)
	}
	if s.arrival.seq != 0 || s.QueueLen() != 0 {
		t.Fatalf("after Run: slot seq %d, QueueLen %d", s.arrival.seq, s.QueueLen())
	}
}

// An arrival cancelled in the slot leaves Pending at once and the slot in
// its turn; until then it keeps the slot, and the next arrival queues in
// the heap.
func TestCancelledArrivalKeepsSlotUntilItsTurn(t *testing.T) {
	s := NewScheduler()
	var got []int
	id := s.Arrive(3, func() { t.Fatal("a cancelled arrival fired") })
	if !s.Cancel(id) || s.Cancel(id) {
		t.Fatal("Cancel of the armed arrival: want true once, then false")
	}
	if s.Pending() != 0 || s.QueueLen() != 1 {
		t.Fatalf("after Cancel: Pending = %d, QueueLen = %d, want 0 and 1", s.Pending(), s.QueueLen())
	}
	s.Arrive(5, func() { got = append(got, 5) })
	if len(s.heap) != 1 {
		t.Fatalf("heap holds %d entries, want the arrival armed beside the cancelled one", len(s.heap))
	}
	if err := s.RunUntil(4); err != nil {
		t.Fatal(err)
	}
	if s.arrival.seq != 0 || s.Pending() != 1 || s.Executed != 0 {
		t.Fatalf("after RunUntil(4): slot seq %d, Pending %d, Executed %d", s.arrival.seq, s.Pending(), s.Executed)
	}
	s.Arrive(4.5, func() { got = append(got, 4) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{4, 5}) || s.QueueLen() != 0 {
		t.Fatalf("fired %v, QueueLen %d; want [4 5], 0", got, s.QueueLen())
	}
}

// The hot path is allocation-free in steady state: entries are values in
// arrays that stop growing once they reach the queue's peak. It holds
// through either entrance — Step, and StepBy with an event budget, the
// run loop's — and with timers resident in the heap that are cancelled
// and re-armed, so the cancelled set keeps taking and releasing seqs.
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
					timers[i%resident] = s.After(1, fn)
					i++
				}
				s.After(1, fn)
				st.step(s)
			}
			for j := range timers {
				timers[j] = s.After(1, fn)
			}
			for j := 0; j < 1024; j++ { // warm the heap and the cancelled set
				event()
			}
			if allocs := testing.AllocsPerRun(10_000, event); allocs != 0 {
				t.Errorf("%s, %d resident timers: steady-state allocations per event = %v, want 0", st.name, resident, allocs)
			}
			if n := s.QueueLen(); n > 4*resident+4 {
				t.Errorf("%s, %d resident timers: QueueLen = %d, the queue keeps growing", st.name, resident, n)
			}
		}
		// An arrival stream's shape: one arrival that re-arms itself as it
		// fires, beside a far timer in the heap.
		s := NewScheduler()
		s.MaxEvents = math.MaxUint64
		var arrive func()
		arrive = func() { s.Arrive(s.Now()+1, arrive) }
		s.After(1e9, fn)
		arrive()
		st.step(s)
		if allocs := testing.AllocsPerRun(10_000, func() { st.step(s) }); allocs != 0 {
			t.Errorf("%s, self-re-arming arrival: steady-state allocations per event = %v, want 0", st.name, allocs)
		}
		if s.QueueLen() != 2 || len(s.heap) != 1 {
			t.Errorf("%s, self-re-arming arrival: QueueLen = %d, heap %d; want the arrival in its slot and the timer", st.name, s.QueueLen(), len(s.heap))
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
		for i := 0; i < 2048; i++ { // warm the lane
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

// BenchmarkScheduler exercises the timer-churn hot path: each iteration
// schedules a kept timer and a decoy, cancels the decoy, and fires one
// event. No simulated run cancels; the row prices the cancelled set.
// Steady-state allocations per scheduled event must stay ≤ 1 (they are 0:
// entries are values in reused arrays; the closure is created once).
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

// BenchmarkSchedulerArrivals is the scheduler's share of a paper sweep,
// sweep-1k's shape: one client arrival that re-arms itself through Arrive
// as it fires, beside a lane of messages — a hop chain re-posted at a
// constant delay as each hop is delivered — and a refresh timer far out in
// the heap. Seven events in eight are arrivals, as in the sweep; an op is
// one event. Run with -cpu 1.
func BenchmarkSchedulerArrivals(b *testing.B) {
	s := NewScheduler()
	s.Deliver = func(ref uint32) { s.Post(0.07, ref) }
	var arrive func()
	arrive = func() { s.Arrive(s.Now()+0.01, arrive) }
	s.After(1e9, func() {})
	s.Post(0.07, 0)
	arrive()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
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
