package obs

import (
	"testing"

	cupcore "cup/internal/cup"
	"cup/internal/overlay"
)

// A small scripted propagation: authority 0 pushes to 1 and 2; node 1
// answers a local client; node 2 cuts itself off; node 1 also forwards
// to 3, which just absorbs the push.
func scriptedTracer() *Tracer {
	tr := NewTracer()
	for _, e := range []cupcore.Event{
		{Kind: cupcore.EvQueryIssued, Time: 1, Node: 1, Peer: cupcore.LocalClient, Key: "k"},
		{Kind: cupcore.EvUpdatePushed, Time: 2, Node: 0, Peer: 1, Key: "k", Type: cupcore.Refresh, Depth: 1},
		{Kind: cupcore.EvUpdatePushed, Time: 2, Node: 0, Peer: 2, Key: "k", Type: cupcore.Refresh, Depth: 1},
		{Kind: cupcore.EvQueryAnswered, Time: 3, Node: 1, Peer: cupcore.LocalClient, Key: "k", Entries: 1},
		{Kind: cupcore.EvUpdatePushed, Time: 3, Node: 1, Peer: 3, Key: "k", Type: cupcore.Refresh, Depth: 2},
		{Kind: cupcore.EvCutoffFired, Time: 4, Node: 2, Peer: 0, Key: "k"},
	} {
		tr.OnEvent(e)
	}
	return tr
}

func TestTracerReconstructsSpanTree(t *testing.T) {
	tr := scriptedTracer()
	trace, ok := tr.Trace("k")
	if !ok {
		t.Fatal("no trace for key k")
	}
	if trace.Root != 0 {
		t.Errorf("root = %v, want 0", trace.Root)
	}
	if trace.Cutoffs != 1 {
		t.Errorf("trace cut-offs = %d, want 1", trace.Cutoffs)
	}
	if len(trace.Spans) != 4 {
		t.Fatalf("got %d spans, want 4: %+v", len(trace.Spans), trace.Spans)
	}
	// Depth order: 0 (root), then 1 and 2 at depth 1, then 3 at depth 2.
	wantOrder := []overlay.NodeID{0, 1, 2, 3}
	byNode := map[overlay.NodeID]Span{}
	for i, s := range trace.Spans {
		if s.Node != wantOrder[i] {
			t.Errorf("span[%d] = node %v, want %v", i, s.Node, wantOrder[i])
		}
		byNode[s.Node] = s
	}
	for node, want := range map[overlay.NodeID]Span{
		0: {Parent: overlay.NoNode, Depth: 0, Outcome: OutcomeForwarded},
		1: {Parent: 0, Depth: 1, Outcome: OutcomeAnswered},
		2: {Parent: 0, Depth: 1, Outcome: OutcomeCutoff},
		3: {Parent: 1, Depth: 2, Outcome: OutcomeAbsorbed},
	} {
		got := byNode[node]
		if got.Parent != want.Parent || got.Depth != want.Depth || got.Outcome != want.Outcome {
			t.Errorf("node %v: parent=%v depth=%d outcome=%q, want parent=%v depth=%d outcome=%q",
				node, got.Parent, got.Depth, got.Outcome, want.Parent, want.Depth, want.Outcome)
		}
	}
	if s := byNode[1]; s.Queries != 1 || s.Answered != 1 || s.Pushes != 1 || s.Receives != 1 {
		t.Errorf("node 1 tallies = %+v", s)
	}
	if s := byNode[3]; s.First != 3 || s.Last != 3 {
		t.Errorf("node 3 time bounds = [%g, %g], want [3, 3]", float64(s.First), float64(s.Last))
	}
}

func TestTracerTotalsAndKeys(t *testing.T) {
	tr := scriptedTracer()
	tr.OnEvent(cupcore.Event{Kind: cupcore.EvCutoffFired, Time: 5, Node: 4, Peer: 1, Key: "other"})
	if got := tr.TotalCutoffs(); got != 2 {
		t.Errorf("TotalCutoffs = %d, want 2", got)
	}
	keys := tr.Keys()
	if len(keys) != 2 || keys[0] != "k" || keys[1] != "other" {
		t.Errorf("Keys = %v, want [k other]", keys)
	}
	if _, ok := tr.Trace("absent"); ok {
		t.Error("Trace of an unseen key must report false")
	}
}

func TestTracerKeyBound(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxKeys(1)
	tr.OnEvent(cupcore.Event{Kind: cupcore.EvQueryIssued, Node: 0, Key: "a"})
	tr.OnEvent(cupcore.Event{Kind: cupcore.EvQueryIssued, Node: 0, Key: "b"})
	if got := len(tr.Keys()); got != 1 {
		t.Errorf("bounded tracer holds %d keys, want 1", got)
	}
	// Membership events never create trace state.
	tr.SetMaxKeys(0)
	tr.OnEvent(cupcore.Event{Kind: cupcore.EvNodeJoined, Node: 9})
	for _, k := range tr.Keys() {
		if k == "" {
			t.Error("membership event leaked an empty-key trace")
		}
	}
}

// TestTracerSteadyStateAllocs pins the zero-allocation contract on
// Tracer.OnEvent: once a (key, node) pair's accumulator exists,
// folding further events into it is allocation-free. Only the first
// observation of a pair allocates (the spanState and per-key map).
func TestTracerSteadyStateAllocs(t *testing.T) {
	tr := NewTracer()
	warm := []cupcore.Event{
		{Kind: cupcore.EvQueryIssued, Time: 1, Node: 1, Peer: cupcore.LocalClient, Key: "k"},
		{Kind: cupcore.EvUpdatePushed, Time: 2, Node: 0, Peer: 1, Key: "k", Type: cupcore.Refresh, Depth: 1},
		{Kind: cupcore.EvQueryAnswered, Time: 3, Node: 1, Peer: cupcore.LocalClient, Key: "k", Entries: 1},
		{Kind: cupcore.EvCutoffFired, Time: 4, Node: 1, Peer: 0, Key: "k"},
	}
	for _, e := range warm {
		tr.OnEvent(e) // allocate every accumulator the loop below touches
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		for _, e := range warm {
			tr.OnEvent(e)
		}
	}); allocs != 0 {
		t.Fatalf("steady-state Tracer.OnEvent allocates %.1f per batch, want 0", allocs)
	}
}
