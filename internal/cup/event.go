package cup

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// This file implements the shared event bus: the protocol core emits one
// identical event stream regardless of transport, so a simulated run and a
// live deployment can be observed — and compared — through the same API.
// Node emits the protocol-level events (query issued/answered, update
// pushed, cut-off fired); the transports add membership events (node
// joined/left) on churn.

// EventKind classifies protocol events.
type EventKind int

const (
	// EvQueryIssued fires when a local client posts a query at a node.
	EvQueryIssued EventKind = iota
	// EvQueryAnswered fires when a node resolves local client connections
	// for a key (Entries carries the answer size; zero for an empty or
	// expired answer).
	EvQueryAnswered
	// EvUpdatePushed fires per neighbor when a node proactively pushes an
	// update along its interest tree (responses to pending queries are
	// miss traffic, not pushes, and do not fire this event).
	EvUpdatePushed
	// EvCutoffFired fires when a node sends a clear-bit to cut itself (or
	// propagate a cut) out of an update propagation tree (§2.7).
	EvCutoffFired
	// EvNodeJoined fires when a node joins the overlay (§2.9 arrivals).
	EvNodeJoined
	// EvNodeLeft fires when a node departs the overlay (§2.9 departures).
	EvNodeLeft
	// EvQueryCoalesced fires when a query is absorbed by an already-pending
	// Pending-First-Update flag (§2.4) instead of being forwarded. Peer is
	// the querier: LocalClient for a local client query, the neighbor
	// otherwise. Appended after the original kinds to keep persisted
	// tallies stable.
	EvQueryCoalesced

	// numEventKinds counts the kinds above; it stays last, and
	// TestEventKindCatalogIsComplete holds EventKinds and String to it.
	numEventKinds
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvQueryIssued:
		return "query-issued"
	case EvQueryAnswered:
		return "query-answered"
	case EvUpdatePushed:
		return "update-pushed"
	case EvCutoffFired:
		return "cutoff-fired"
	case EvNodeJoined:
		return "node-joined"
	case EvNodeLeft:
		return "node-left"
	case EvQueryCoalesced:
		return "query-coalesced"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// EventKinds lists every kind in declaration order (for tallies).
var EventKinds = []EventKind{
	EvQueryIssued, EvQueryAnswered, EvUpdatePushed, EvCutoffFired,
	EvNodeJoined, EvNodeLeft, EvQueryCoalesced,
}

// Event is one observation from a running deployment. Time is virtual
// seconds on the simulated transport and wall-clock seconds since network
// start on the live one; everything else is transport-independent.
type Event struct {
	Kind EventKind
	Time sim.Time
	// Node is where the event happened.
	Node overlay.NodeID
	// Peer is the counterpart when one exists: the push or clear-bit
	// target. NoNode otherwise.
	Peer overlay.NodeID
	Key  overlay.Key
	// Type is the update taxonomy for EvUpdatePushed.
	Type UpdateType
	// Depth is the receiver's hop distance from the authority for
	// EvUpdatePushed.
	Depth int
	// Entries is the answer payload size for EvQueryAnswered.
	Entries int
	// Latency is the elapsed time since the answered query was first
	// issued at this node, for EvQueryAnswered: zero for cache hits
	// (answered inline), positive when the answer had to travel the
	// overlay. Virtual seconds on the simulator, wall-clock seconds on
	// the live transport.
	Latency sim.Duration
}

// Observer receives protocol events. Implementations attached to a live
// network are called from many peer goroutines concurrently and must be
// safe for concurrent use; on the simulator they are called inline from
// the single scheduler goroutine.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(e Event) { f(e) }

// Bus fans events out to synchronous observers. It is safe for
// concurrent use from any number of emitters, so one Bus serves both the
// single-threaded simulator and the goroutine-per-peer live runtime.
//
// Observers are kept in an attach-order slice, not a map: fan-out order is
// part of the event-stream contract (two observers of the same simulated
// run must see identical interleavings on every execution), and a map
// range here once made collector-vs-trace orderings flip between runs.
// Slice iteration is also what keeps OnEvent on the zero-allocation hot
// path.
type Bus struct {
	mu   sync.RWMutex
	seq  uint64
	taps []busTap
	// listeners is len(taps), kept in step under mu, so an emitter with
	// nobody listening — every node of an unobserved run, on every
	// protocol event — leaves without taking the lock.
	listeners atomic.Int32
}

type busTap struct {
	id uint64
	o  Observer
}

// NewBus returns an empty bus.
func NewBus() *Bus {
	return &Bus{}
}

// OnEvent implements Observer by fanning the event out in attach order,
// so a Bus can be installed directly as a node or transport observer.
func (b *Bus) OnEvent(e Event) {
	if b.listeners.Load() == 0 {
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	for i := range b.taps {
		b.taps[i].o.OnEvent(e)
	}
}

// Attach registers a synchronous observer; the returned function detaches
// it. Observers attached to a live deployment must be concurrency-safe.
func (b *Bus) Attach(o Observer) (detach func()) {
	b.mu.Lock()
	b.seq++
	id := b.seq
	b.taps = append(b.taps, busTap{id: id, o: o})
	b.listeners.Add(1)
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		for i := range b.taps {
			if b.taps[i].id == id {
				b.taps = append(b.taps[:i], b.taps[i+1:]...)
				b.listeners.Add(-1)
				break
			}
		}
		b.mu.Unlock()
	}
}
