package obs

import (
	"testing"

	cupcore "cup/internal/cup"
	"cup/internal/overlay"
)

func TestCollectorFoldsEventStream(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	events := []cupcore.Event{
		{Kind: cupcore.EvQueryIssued, Node: 1, Key: "k"},
		{Kind: cupcore.EvQueryAnswered, Node: 1, Key: "k", Latency: 0.25},
		{Kind: cupcore.EvQueryAnswered, Node: 2, Key: "k"},
		{Kind: cupcore.EvUpdatePushed, Node: 0, Peer: 1, Key: "k", Type: cupcore.Refresh, Depth: 1},
		{Kind: cupcore.EvUpdatePushed, Node: 1, Peer: 2, Key: "k", Type: cupcore.Append, Depth: 2},
		{Kind: cupcore.EvCutoffFired, Node: 2, Peer: 1, Key: "k"},
		{Kind: cupcore.EvQueryCoalesced, Node: 1, Peer: cupcore.LocalClient, Key: "k"},
		{Kind: cupcore.EvQueryCoalesced, Node: 1, Peer: 3, Key: "k"},
	}
	for _, e := range events {
		c.OnEvent(e)
	}

	check := func(name string, want float64, labels ...Label) {
		t.Helper()
		got, ok := reg.Value(name, labels...)
		if !ok || got != want {
			t.Errorf("%s%v = %g (ok=%v), want %g", name, labels, got, ok, want)
		}
	}
	check(MetricEvents, 2, Label{"kind", "query-answered"})
	check(MetricEvents, 2, Label{"kind", "update-pushed"})
	check(MetricEvents, 1, Label{"kind", "cutoff-fired"})
	check(MetricQueryLatency, 2) // histogram reports sample count
	check(MetricPushDepth, 2)
	check(MetricUpdatesPushed, 1, Label{"type", "refresh"})
	check(MetricUpdatesPushed, 1, Label{"type", "append"})
	check(MetricUpdatesPushed, 0, Label{"type", "first-time"})
	check(MetricQueriesCoalesce, 1, Label{"source", "local"})
	check(MetricQueriesCoalesce, 1, Label{"source", "neighbor"})
	check(MetricCutoffs, 1)

	// Every kind in the catalog has its own tally, and one event of the
	// kind moves it by exactly one.
	for _, k := range cupcore.EventKinds {
		kind := Label{"kind", k.String()}
		before, _ := reg.Value(MetricEvents, kind)
		c.OnEvent(cupcore.Event{Kind: k, Node: 1, Key: "k"})
		check(MetricEvents, before+1, kind)
	}
}

// The collector sits on the bus of every instrumented run, including
// benchmark runs gated at 0 allocs/event: OnEvent must not allocate.
func TestCollectorOnEventZeroAlloc(t *testing.T) {
	c := NewCollector(NewRegistry())
	evs := []cupcore.Event{
		{Kind: cupcore.EvQueryAnswered, Latency: 0.1},
		{Kind: cupcore.EvUpdatePushed, Peer: 1, Type: cupcore.Refresh, Depth: 3},
		{Kind: cupcore.EvCutoffFired, Peer: 1},
		{Kind: cupcore.EvQueryCoalesced, Peer: overlay.NoNode},
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		c.OnEvent(evs[i%len(evs)])
		i++
	}); n != 0 {
		t.Errorf("Collector.OnEvent allocates %g/op", n)
	}
}
