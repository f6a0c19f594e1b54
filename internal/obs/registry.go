// Package obs is the telemetry subsystem: a zero-allocation metrics
// registry (atomic counters, gauges, and fixed-bucket histograms safe to
// record from the scheduler and driver hot paths), a bus-subscribing
// collector that turns the deployment event stream into those metrics, a
// propagation tracer that reconstructs per-key span trees from the same
// stream, and an HTTP server exposing Prometheus-text /metrics, the
// /debug/pprof endpoints, and JSON /trace dumps.
//
// The registry is transport-agnostic: the discrete-event simulator and
// the live goroutine network feed it through the same cup.Observer
// surface, so a simulated run and a production deployment report through
// identical series.
package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair, fixed at registration time. Recording
// never touches labels, so the hot path stays allocation-free.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Counter is a monotonically increasing metric. Inc and Add are
// allocation-free atomic operations.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. All operations are
// allocation-free atomics; the value is stored as float64 bits.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta via a CAS loop.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is allocation-free:
// a linear scan over the (small, immutable) bound slice, an atomic
// bucket increment, and a CAS-accumulated sum.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; counts has one extra +Inf bucket
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// metricKind discriminates the series types a family may hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance of a metric family.
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	kind       metricKind
	series     []*series
}

// Registry holds metric families in registration order and renders them
// as Prometheus text or structured snapshots. Registration takes a lock
// and allocates; recording through the returned handles never does.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-hop-delay range of a live LAN deployment up to the multi-hundred-
// second virtual latencies of paper-scale simulated runs.
var DefBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// DepthBuckets bound hop-depth histograms: overlay routes are O(log n),
// so 16 levels cover networks far beyond the paper's 2^12 nodes.
var DepthBuckets = []float64{1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16}

// lookup finds or creates the family and series for (name, labels),
// enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	for _, s := range f.series {
		if labelsEqual(s.labels, labels) {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	f.series = append(f.series, s)
	return s
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
	}
	return s.counter
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
	}
	return s.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — occupancy-style metrics (inbox load, queue depth) read live
// state instead of being pushed.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, kindGaugeFunc, labels)
	s.gaugeFn = fn
}

// Histogram registers (or returns the existing) histogram series with
// the given ascending upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return s.hist
}

// renderLabels formats {k="v",...}; extra appends one more pair (the
// histogram le label).
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	parts := make([]string, len(all))
	for i, l := range all {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			var err error
			switch f.kind {
			case kindCounter:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, renderLabels(s.labels), s.counter.Value())
			case kindGauge:
				_, err = fmt.Fprintf(w, "%s%s %g\n", f.name, renderLabels(s.labels), s.gauge.Value())
			case kindGaugeFunc:
				_, err = fmt.Fprintf(w, "%s%s %g\n", f.name, renderLabels(s.labels), s.gaugeFn())
			case kindHistogram:
				h := s.hist
				cum := uint64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.name, renderLabels(s.labels, Label{"le", fmt.Sprintf("%g", b)}), cum); err != nil {
						return err
					}
				}
				cum += h.counts[len(h.bounds)].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket%s %d\n",
					f.name, renderLabels(s.labels, Label{"le", "+Inf"}), cum); err != nil {
					return err
				}
				if _, err = fmt.Fprintf(w, "%s_sum%s %g\n", f.name, renderLabels(s.labels), h.Sum()); err != nil {
					return err
				}
				_, err = fmt.Fprintf(w, "%s_count%s %d\n", f.name, renderLabels(s.labels), h.Count())
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MetricSnapshot is one series' point-in-time state, suitable for JSON
// export (cupbench) and programmatic assertions (tests, examples).
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Labels  []Label  `json:"labels,omitempty"`
	Value   float64  `json:"value"`
	Count   uint64   `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures every series in registration order.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricSnapshot
	for _, f := range r.families {
		for _, s := range f.series {
			ms := MetricSnapshot{Name: f.name, Type: f.kind.String(), Labels: s.labels}
			switch f.kind {
			case kindCounter:
				ms.Value = float64(s.counter.Value())
			case kindGauge:
				ms.Value = s.gauge.Value()
			case kindGaugeFunc:
				ms.Value = s.gaugeFn()
			case kindHistogram:
				h := s.hist
				ms.Count = h.Count()
				ms.Sum = h.Sum()
				ms.Value = ms.Sum
				cum := uint64(0)
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					ms.Buckets = append(ms.Buckets, Bucket{LE: b, Count: cum})
				}
				cum += h.counts[len(h.bounds)].Load()
				ms.Buckets = append(ms.Buckets, Bucket{LE: math.Inf(1), Count: cum})
			}
			out = append(out, ms)
		}
	}
	return out
}

// Value returns the current value of a counter, gauge, or gauge-func
// series, or (0, false) when no such series exists. Histogram series
// report their sample count.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		return 0, false
	}
	for _, s := range f.series {
		if !labelsEqual(s.labels, labels) {
			continue
		}
		switch f.kind {
		case kindCounter:
			return float64(s.counter.Value()), true
		case kindGauge:
			return s.gauge.Value(), true
		case kindGaugeFunc:
			return s.gaugeFn(), true
		case kindHistogram:
			return float64(s.hist.Count()), true
		}
	}
	return 0, false
}
