package obs

import (
	"math"
	"strings"
	"testing"
)

func TestCounterGaugeHistogramValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "help")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}
	h := r.Histogram("h_seconds", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 3 || h.Sum() != 55.5 {
		t.Errorf("histogram count=%d sum=%g, want 3 and 55.5", h.Count(), h.Sum())
	}
}

func TestRegistryReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "h", Label{"k", "v"})
	b := r.Counter("x_total", "h", Label{"k", "v"})
	if a != b {
		t.Error("same (name, labels) must return the same counter")
	}
	other := r.Counter("x_total", "h", Label{"k", "w"})
	if a == other {
		t.Error("different labels must get a distinct series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("m", "h")
}

// The hot-path invariant: recording into pre-registered handles must not
// allocate, or the collector would break the scheduler's 0 allocs/event
// budget.
func TestRecordPathsZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", DefBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(2) }); n != 0 {
		t.Errorf("Counter.Inc/Add allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1); g.Add(1) }); n != 0 {
		t.Errorf("Gauge record allocates %g/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %g/op", n)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cup_things_total", "Things seen.", Label{"kind", "a"}).Add(3)
	r.Gauge("cup_level", "Current level.").Set(7)
	r.GaugeFunc("cup_live", "Live value.", func() float64 { return 2 })
	h := r.Histogram("cup_lat_seconds", "Latency.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cup_things_total Things seen.",
		"# TYPE cup_things_total counter",
		`cup_things_total{kind="a"} 3`,
		"# TYPE cup_level gauge",
		"cup_level 7",
		"cup_live 2",
		"# TYPE cup_lat_seconds histogram",
		`cup_lat_seconds_bucket{le="1"} 1`,
		`cup_lat_seconds_bucket{le="10"} 2`,
		`cup_lat_seconds_bucket{le="+Inf"} 3`,
		"cup_lat_seconds_sum 55.5",
		"cup_lat_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotAndValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "h", Label{"x", "1"}).Add(9)
	h := r.Histogram("b_seconds", "h", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "a_total" || snap[0].Value != 9 || snap[0].Type != "counter" {
		t.Errorf("counter snapshot = %+v", snap[0])
	}
	hs := snap[1]
	if hs.Count != 2 || hs.Sum != 2.5 || len(hs.Buckets) != 2 {
		t.Errorf("histogram snapshot = %+v", hs)
	}
	if !math.IsInf(hs.Buckets[1].LE, 1) || hs.Buckets[1].Count != 2 {
		t.Errorf("+Inf bucket = %+v", hs.Buckets[1])
	}

	if v, ok := r.Value("a_total", Label{"x", "1"}); !ok || v != 9 {
		t.Errorf("Value(a_total) = %g, %v", v, ok)
	}
	if v, ok := r.Value("b_seconds"); !ok || v != 2 {
		t.Errorf("Value(b_seconds) = %g, %v (histograms report count)", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value of unregistered series must report false")
	}
}
