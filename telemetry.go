package cup

import (
	"fmt"
	"sync"
	"time"

	internal "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/obs"
)

// Telemetry re-exports. The registry and its handles live in
// cup/internal/obs; these aliases make the snapshot and trace surfaces
// part of the public API.
type (
	// MetricLabel is one metric label pair.
	MetricLabel = obs.Label
	// MetricSnapshot is one metric series' point-in-time state.
	MetricSnapshot = obs.MetricSnapshot
	// Trace is the reconstructed span tree of one key's propagation.
	Trace = obs.Trace
	// Span is one node's participation in a propagation tree.
	Span = obs.Span
)

// WithTelemetry enables the telemetry subsystem: a metrics registry fed
// by a zero-allocation bus collector, and a propagation tracer
// reconstructing per-key span trees. With a non-empty addr the
// deployment also serves HTTP there — Prometheus-text /metrics, JSON
// /trace/{key}, and the /debug/pprof endpoints; ":0" picks a free port
// (read it back via TelemetryAddr). An empty addr collects without
// serving — Metrics, MetricValue, and Trace still work.
func WithTelemetry(addr string) Option {
	return func(o *options) {
		o.telemetry = true
		o.telemetryAddr = addr
	}
}

// telemetry bundles the per-deployment observability state New wires up
// under WithTelemetry.
type telemetry struct {
	reg    *obs.Registry
	col    *obs.Collector
	tracer *obs.Tracer
	srv    *obs.Server
}

// initTelemetry builds the registry, collector, and tracer, attaches
// them to the bus, registers the deployment-shape gauges, and (with a
// non-empty addr) starts the HTTP server. Called from New after the
// transport is built, so occupancy gauges can read runtime state.
func (d *Deployment) initTelemetry(o *options) error {
	reg := obs.NewRegistry()
	t := &telemetry{
		reg:    reg,
		col:    obs.NewCollector(reg),
		tracer: obs.NewTracer(),
	}
	d.listen()
	d.detach = append(d.detach, d.bus.Attach(t.col), d.bus.Attach(t.tracer))

	reg.Gauge("cup_info", "Deployment shape (always 1; labels carry the configuration).",
		MetricLabel{Key: "transport", Value: o.transport.String()},
		MetricLabel{Key: "overlay", Value: o.p.OverlayKind}).Set(1)
	reg.Gauge("cup_nodes", "Overlay size of this deployment.").Set(float64(o.p.Nodes))
	reg.GaugeFunc("cup_bus_dropped_events",
		"Events discarded because a channel subscriber's buffer was full.",
		func() float64 { return float64(d.bus.Dropped()) })

	if sr, ok := d.rt.(*simRuntime); ok {
		reg.GaugeFunc("cup_sim_queue_depth",
			"Events in the simulator's queue: timers in the heap plus messages in the lane.",
			func() float64 {
				sr.mu.Lock()
				defer sr.mu.Unlock()
				return float64(sr.s.Sched.QueueLen())
			})
	}

	if lr, ok := d.rt.(*liveRuntime); ok {
		// Occupancy gauges read live state at scrape time.
		inbox := &inboxSample{n: lr.n}
		reg.GaugeFunc("cup_live_inbox_used",
			"Messages queued across live peer inboxes.",
			func() float64 { used, _ := inbox.read(); return float64(used) })
		reg.GaugeFunc("cup_live_inbox_capacity",
			"Total live peer inbox capacity.",
			func() float64 { _, capacity := inbox.read(); return float64(capacity) })
		reg.GaugeFunc("cup_live_ports_used",
			"Loopback listener ports currently drawn from the process-wide port ledger (TCP peers and serving listeners).",
			func() float64 { return float64(live.PortsInUse()) })
		reg.Gauge("cup_live_port_budget",
			"Process-wide cap on loopback listener ports (live.DefaultPortBudget).").
			Set(float64(live.DefaultPortBudget))
	}

	// When the telemetry address is also a serving address, initServing
	// binds it once and serves /metrics, /trace, and /v1/* together;
	// starting a second server here would lose the port race.
	if o.telemetryAddr != "" && !addrClaimedByServing(o, o.telemetryAddr) {
		srv, err := obs.NewServer(o.telemetryAddr, reg, t.tracer)
		if err != nil {
			return fmt.Errorf("cup: telemetry server: %w", err)
		}
		t.srv = srv
	}
	d.tele = t
	return nil
}

// inboxSample lets the two inbox gauges share one walk of the peers: a
// scrape reads both within microseconds, and a sample younger than a
// millisecond is reused.
type inboxSample struct {
	n *live.Network

	mu             sync.Mutex
	at             time.Time
	used, capacity int
}

func (s *inboxSample) read() (used, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if now := time.Now(); now.Sub(s.at) > time.Millisecond {
		s.at = now
		s.used, s.capacity = s.n.InboxLoad()
	}
	return s.used, s.capacity
}

// Metrics snapshots every telemetry series, or nil without
// WithTelemetry.
func (d *Deployment) Metrics() []MetricSnapshot {
	if d.tele == nil {
		return nil
	}
	return d.tele.reg.Snapshot()
}

// MetricValue reads one telemetry series: counters and gauges report
// their value, histograms their sample count. The bool is false without
// WithTelemetry or when no such series exists.
func (d *Deployment) MetricValue(name string, labels ...MetricLabel) (float64, bool) {
	if d.tele == nil {
		return 0, false
	}
	return d.tele.reg.Value(name, labels...)
}

// Trace returns the reconstructed propagation span tree for key. The
// bool is false without WithTelemetry or when no events for the key
// were observed.
func (d *Deployment) Trace(key Key) (Trace, bool) {
	if d.tele == nil {
		return Trace{Key: key, Root: internal.LocalClient}, false
	}
	return d.tele.tracer.Trace(key)
}

// TraceKeys lists every traced key, sorted; nil without WithTelemetry.
func (d *Deployment) TraceKeys() []Key {
	if d.tele == nil {
		return nil
	}
	return d.tele.tracer.Keys()
}

// TelemetryAddr returns the bound telemetry HTTP address (useful with
// WithTelemetry(":0")), or "" when no server is running.
func (d *Deployment) TelemetryAddr() string {
	if d.tele == nil || d.tele.srv == nil {
		return ""
	}
	return d.tele.srv.Addr()
}
