package cup

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEventKindCatalogIsComplete holds the catalog to the iota block: a
// new kind must be listed in EventKinds, in declaration order, and named
// by String, or every tally indexed by kind silently skips it.
func TestEventKindCatalogIsComplete(t *testing.T) {
	if len(EventKinds) != int(numEventKinds) {
		t.Errorf("EventKinds lists %d kinds, the iota block declares %d", len(EventKinds), numEventKinds)
	}
	for k := EventKind(0); k < numEventKinds; k++ {
		if int(k) < len(EventKinds) && EventKinds[k] != k {
			t.Errorf("EventKinds[%d] = %v, want %v", int(k), EventKinds[k], k)
		}
		if k.String() == fmt.Sprintf("event(%d)", int(k)) {
			t.Errorf("kind %d has no name in EventKind.String", int(k))
		}
	}
}

// TestBusFanOutOrder pins the fan-out order contract: observers see
// events in attach order, every run. The bus used to keep observers in
// a map, so two observers of the same simulated run could see their
// callbacks interleaved differently between executions — the
// determinism leak this test regresses.
func TestBusFanOutOrder(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		b := NewBus()
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			b.Attach(ObserverFunc(func(Event) { order = append(order, i) }))
		}
		b.OnEvent(Event{Kind: EvQueryIssued})
		if len(order) != 8 {
			t.Fatalf("trial %d: %d observers fired, want 8", trial, len(order))
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("trial %d: fan-out order %v, want attach order", trial, order)
			}
		}
	}
}

// TestBusDetachMidstream verifies detaching preserves the relative
// order of the remaining observers and detached ones stop firing.
func TestBusDetachMidstream(t *testing.T) {
	b := NewBus()
	var order []int
	detach := make([]func(), 5)
	for i := 0; i < 5; i++ {
		i := i
		detach[i] = b.Attach(ObserverFunc(func(Event) { order = append(order, i) }))
	}
	detach[1]()
	detach[3]()
	b.OnEvent(Event{Kind: EvQueryIssued})
	want := []int{0, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
	// Detaching twice is a no-op, not a corruption of the slice.
	detach[1]()
	order = order[:0]
	b.OnEvent(Event{Kind: EvQueryIssued})
	if len(order) != len(want) {
		t.Fatalf("after double detach: fired %v, want %v", order, want)
	}
}

// TestBusOnEventAllocs pins the zero-allocation fan-out contract for
// OnEvent.
func TestBusOnEventAllocs(t *testing.T) {
	b := NewBus()
	sink := 0
	b.Attach(ObserverFunc(func(e Event) { sink += e.Entries }))
	b.Attach(ObserverFunc(func(e Event) { sink += e.Depth }))
	ev := Event{Kind: EvUpdatePushed, Entries: 1, Depth: 2}
	if allocs := testing.AllocsPerRun(1000, func() { b.OnEvent(ev) }); allocs != 0 {
		t.Fatalf("Bus.OnEvent allocates %.1f per event, want 0", allocs)
	}
}

// TestBusListenerCount pins the early-out's bookkeeping: the count an
// emitter checks before taking the lock follows every way a listener can
// come and go, so nobody attached means no work and anybody attached
// means delivery.
func TestBusListenerCount(t *testing.T) {
	b := NewBus()
	want := func(n int32) {
		t.Helper()
		if got := b.listeners.Load(); got != n {
			t.Fatalf("listeners = %d, want %d", got, n)
		}
	}
	want(0)
	if allocs := testing.AllocsPerRun(100, func() { b.OnEvent(Event{Kind: EvQueryIssued}) }); allocs != 0 {
		t.Fatalf("OnEvent with nobody listening allocates %.1f", allocs)
	}
	seen, other := 0, 0
	detach := b.Attach(ObserverFunc(func(Event) { seen++ }))
	detachOther := b.Attach(ObserverFunc(func(Event) { other++ }))
	want(2)
	b.OnEvent(Event{Kind: EvQueryIssued})
	if seen != 1 || other != 1 {
		t.Fatalf("attached listeners missed the event: %d and %d", seen, other)
	}
	detach()
	detach() // idempotent: must not count down twice
	want(1)
	detachOther()
	want(0)
	b.OnEvent(Event{Kind: EvQueryIssued})
	if seen != 1 {
		t.Fatal("detached observer still fired")
	}
	b.Attach(ObserverFunc(func(Event) { seen += 10 }))
	b.OnEvent(Event{Kind: EvQueryIssued})
	if seen != 11 {
		t.Fatalf("observer attached after the bus went quiet did not fire (seen %d)", seen)
	}
}

// TestBusChurnUnderEmit runs emitters against listeners coming and going;
// under -race it checks the lock-free early-out against the locked paths.
func TestBusChurnUnderEmit(t *testing.T) {
	b := NewBus()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.OnEvent(Event{Kind: EvUpdatePushed})
				}
			}
		}()
	}
	var fired atomic.Int64
	for i := 0; i < 200; i++ {
		detach := b.Attach(ObserverFunc(func(Event) { fired.Add(1) }))
		detachOther := b.Attach(ObserverFunc(func(Event) {}))
		detach()
		detachOther()
	}
	close(stop)
	wg.Wait()
	if got := b.listeners.Load(); got != 0 {
		t.Fatalf("listeners = %d after everyone left", got)
	}
}
