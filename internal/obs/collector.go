package obs

import (
	cupcore "cup/internal/cup"
)

// Metric names the collector populates — the catalog README documents
// and the CI smoke test asserts on.
const (
	MetricEvents          = "cup_events_total"
	MetricQueryLatency    = "cup_query_latency_seconds"
	MetricPushDepth       = "cup_update_push_depth"
	MetricUpdatesPushed   = "cup_updates_pushed_total"
	MetricQueriesCoalesce = "cup_queries_coalesced_total"
	MetricCutoffs         = "cup_cutoffs_total"
)

// Collector subscribes to the deployment event bus and folds the stream
// into registry series. Every handle is resolved at construction, so
// OnEvent is allocation-free and safe to call from the simulator's
// scheduler loop or from live peer goroutines.
type Collector struct {
	// byKind counts every event, indexed by EventKind.
	byKind []*Counter
	// byType counts proactive pushes, indexed by UpdateType.
	byType    []*Counter
	latency   *Histogram
	pushDepth *Histogram
	// coalesced splits §2.4 query absorption by querier: index 0 = local
	// client (mirrors metrics.Counters.Coalesced), 1 = neighbor.
	coalesced [2]*Counter
	cutoffs   *Counter
}

// NewCollector registers the event-stream series on reg and returns the
// observer to attach to a bus.
func NewCollector(reg *Registry) *Collector {
	c := &Collector{}
	c.byKind = make([]*Counter, len(cupcore.EventKinds))
	for _, k := range cupcore.EventKinds {
		c.byKind[k] = reg.Counter(MetricEvents,
			"Protocol events observed on the deployment bus.",
			Label{"kind", k.String()})
	}
	types := []cupcore.UpdateType{cupcore.FirstTime, cupcore.Delete, cupcore.Refresh, cupcore.Append}
	c.byType = make([]*Counter, len(types))
	for _, t := range types {
		c.byType[t] = reg.Counter(MetricUpdatesPushed,
			"Proactive update pushes along interest trees, by update taxonomy.",
			Label{"type", t.String()})
	}
	c.latency = reg.Histogram(MetricQueryLatency,
		"Client query answer latency in seconds (0 for cache hits).",
		DefBuckets)
	c.pushDepth = reg.Histogram(MetricPushDepth,
		"Receiver hop distance from the authority for each proactive push.",
		DepthBuckets)
	c.coalesced[0] = reg.Counter(MetricQueriesCoalesce,
		"Queries absorbed by an already-pending Pending-First-Update flag.",
		Label{"source", "local"})
	c.coalesced[1] = reg.Counter(MetricQueriesCoalesce,
		"Queries absorbed by an already-pending Pending-First-Update flag.",
		Label{"source", "neighbor"})
	c.cutoffs = reg.Counter(MetricCutoffs,
		"Clear-bit cut-offs pruning update propagation trees (§2.7).")
	return c
}

// OnEvent implements cup.Observer. Zero allocations.
func (c *Collector) OnEvent(e cupcore.Event) {
	if int(e.Kind) < len(c.byKind) {
		c.byKind[e.Kind].Inc()
	}
	switch e.Kind {
	case cupcore.EvQueryIssued, cupcore.EvNodeJoined, cupcore.EvNodeLeft:
		// Tallied per kind above; no dedicated series beyond the count.
	case cupcore.EvQueryAnswered:
		c.latency.Observe(float64(e.Latency))
	case cupcore.EvUpdatePushed:
		if int(e.Type) < len(c.byType) {
			c.byType[e.Type].Inc()
		}
		c.pushDepth.Observe(float64(e.Depth))
	case cupcore.EvCutoffFired:
		c.cutoffs.Inc()
	case cupcore.EvQueryCoalesced:
		if e.Peer == cupcore.LocalClient {
			c.coalesced[0].Inc()
		} else {
			c.coalesced[1].Inc()
		}
	}
}
