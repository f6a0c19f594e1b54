package obs

import (
	"sort"
	"sync"

	cupcore "cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Span outcomes, in decision order: a node that cut itself out of the
// tree is a cut-off even if it answered earlier; a node that answered
// local clients beats one that merely forwarded.
const (
	OutcomeCutoff    = "cut-off"
	OutcomeAnswered  = "answered-from-cache"
	OutcomeForwarded = "forwarded"
	OutcomeAbsorbed  = "absorbed"
)

// Span is one node's participation in a key's propagation tree.
type Span struct {
	Node overlay.NodeID `json:"node"`
	// Parent is the upstream neighbor that pushed to this node; NoNode
	// for the authority (root) and for nodes only seen querying.
	Parent overlay.NodeID `json:"parent"`
	// Depth is the hop distance from the authority (0 at the root, -1
	// when the node never received a push).
	Depth int `json:"depth"`
	// First/Last bound the node's observed activity: virtual seconds on
	// the simulator, wall-clock seconds since network start when live.
	First sim.Time `json:"first"`
	Last  sim.Time `json:"last"`
	// Event tallies at this node for this key.
	Queries   int `json:"queries"`
	Answered  int `json:"answered"`
	Coalesced int `json:"coalesced"`
	// Pushes counts proactive pushes sent; Receives pushes received.
	Pushes   int `json:"pushes"`
	Receives int `json:"receives"`
	Cutoffs  int `json:"cutoffs"`
	// Outcome summarizes the node's role: cut-off, answered-from-cache,
	// forwarded, or absorbed (received pushes without acting on them).
	Outcome string `json:"outcome"`
}

// Trace is the reconstructed span tree of one key's propagation.
type Trace struct {
	Key  overlay.Key    `json:"key"`
	Root overlay.NodeID `json:"root"`
	// Spans lists every participating node ordered by depth, then node
	// ID (unknown-depth spans last).
	Spans []Span `json:"spans"`
	// Cutoffs is the tree-wide cut-off total — one per EvCutoffFired,
	// matching the collector's cup_cutoffs_total for the same stream.
	Cutoffs int `json:"cutoffs"`
}

// spanState is the mutable per-(key, node) accumulator.
type spanState struct {
	parent            overlay.NodeID
	depth             int
	first, last       sim.Time
	queries, answered int
	coalesced         int
	pushes, receives  int
	cutoffs           int
}

// DefaultTraceKeys bounds how many distinct keys a Tracer records; keys
// beyond the bound are ignored, never evicted, so long-running live
// deployments cannot grow the trace map without bound.
const DefaultTraceKeys = 1024

// Tracer reconstructs per-key propagation span trees from the event
// stream. It implements cup.Observer and is safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	maxKeys int
	keys    map[overlay.Key]map[overlay.NodeID]*spanState
}

// NewTracer returns a tracer bounded at DefaultTraceKeys distinct keys.
func NewTracer() *Tracer {
	return &Tracer{maxKeys: DefaultTraceKeys,
		keys: make(map[overlay.Key]map[overlay.NodeID]*spanState)}
}

// SetMaxKeys adjusts the distinct-key bound (non-positive = unbounded).
func (t *Tracer) SetMaxKeys(n int) {
	t.mu.Lock()
	t.maxKeys = n
	t.mu.Unlock()
}

// spans returns (allocating if allowed) the accumulator map for k.
func (t *Tracer) spans(k overlay.Key) map[overlay.NodeID]*spanState {
	m := t.keys[k]
	if m == nil {
		if t.maxKeys > 0 && len(t.keys) >= t.maxKeys {
			return nil
		}
		// Cold branch: first event for a new key.
		m = make(map[overlay.NodeID]*spanState)
		t.keys[k] = m
	}
	return m
}

// at returns (allocating if needed) the accumulator for node n of key k,
// stamping the observation time.
func at(m map[overlay.NodeID]*spanState, n overlay.NodeID, now sim.Time) *spanState {
	s := m[n]
	if s == nil {
		// Cold branch: a node's first event for this key.
		s = &spanState{parent: overlay.NoNode, depth: -1, first: now}
		m[n] = s
	}
	s.last = now
	return s
}

// OnEvent implements cup.Observer. Steady-state span updates are
// allocation-free; only the first observation of a (key, node) pair
// allocates its accumulator (see at and spans).
func (t *Tracer) OnEvent(e cupcore.Event) {
	switch e.Kind {
	case cupcore.EvNodeJoined, cupcore.EvNodeLeft:
		return // membership events carry no key
	case cupcore.EvQueryIssued, cupcore.EvQueryAnswered, cupcore.EvQueryCoalesced,
		cupcore.EvUpdatePushed, cupcore.EvCutoffFired:
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.spans(e.Key)
	if m == nil {
		return // key bound reached
	}
	s := at(m, e.Node, e.Time)
	switch e.Kind {
	case cupcore.EvQueryIssued:
		s.queries++
	case cupcore.EvQueryAnswered:
		s.answered++
	case cupcore.EvQueryCoalesced:
		s.coalesced++
	case cupcore.EvUpdatePushed:
		s.pushes++
		// The push carries the receiver's depth, which also pins the
		// emitter one level up and records the tree edge.
		if s.depth < 0 {
			s.depth = e.Depth - 1
		}
		r := at(m, e.Peer, e.Time)
		r.receives++
		r.parent = e.Node
		r.depth = e.Depth
	case cupcore.EvCutoffFired:
		s.cutoffs++
	}
}

// build renders one key's accumulators into an immutable Trace.
func build(k overlay.Key, m map[overlay.NodeID]*spanState) Trace {
	tr := Trace{Key: k, Root: overlay.NoNode}
	tr.Spans = make([]Span, 0, len(m))
	for n, s := range m {
		outcome := OutcomeAbsorbed
		switch {
		case s.cutoffs > 0:
			outcome = OutcomeCutoff
		case s.answered > 0:
			outcome = OutcomeAnswered
		case s.pushes > 0:
			outcome = OutcomeForwarded
		}
		if s.depth == 0 {
			tr.Root = n
		}
		tr.Cutoffs += s.cutoffs
		tr.Spans = append(tr.Spans, Span{
			Node: n, Parent: s.parent, Depth: s.depth,
			First: s.first, Last: s.last,
			Queries: s.queries, Answered: s.answered, Coalesced: s.coalesced,
			Pushes: s.pushes, Receives: s.receives, Cutoffs: s.cutoffs,
			Outcome: outcome,
		})
	}
	sort.Slice(tr.Spans, func(i, j int) bool {
		di, dj := tr.Spans[i].Depth, tr.Spans[j].Depth
		// Unknown depths (-1) sort after every known level.
		if (di < 0) != (dj < 0) {
			return dj < 0
		}
		if di != dj {
			return di < dj
		}
		return tr.Spans[i].Node < tr.Spans[j].Node
	})
	return tr
}

// Trace returns the reconstructed span tree for key, and whether any
// events for it were recorded.
func (t *Tracer) Trace(key overlay.Key) (Trace, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.keys[key]
	if !ok {
		return Trace{Key: key, Root: overlay.NoNode}, false
	}
	return build(key, m), true
}

// Keys lists every traced key, sorted.
func (t *Tracer) Keys() []overlay.Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]overlay.Key, 0, len(t.keys))
	for k := range t.keys {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCutoffs sums cut-offs across every traced key — by construction
// equal to the collector's cup_cutoffs_total over the same event stream
// (when the key bound was never hit).
func (t *Tracer) TotalCutoffs() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	total := 0
	for _, m := range t.keys {
		for _, s := range m {
			total += s.cutoffs
		}
	}
	return total
}
