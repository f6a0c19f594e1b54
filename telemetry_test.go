// Telemetry acceptance tests: the collector's counters, the tracer's
// span trees, and the HTTP serving surface, exercised through the public
// WithTelemetry option on both transports.
package cup_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"cup"
)

// A flash-crowd run long enough for replica refreshes to travel the
// interest trees and for uninterested leaves to cut themselves off.
func flashCrowdWithTelemetry(t *testing.T) (*cup.Deployment, *cup.Result) {
	t.Helper()
	sc, err := cup.BuildScenario("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cup.New(
		cup.WithTelemetry(""),
		cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...),
		cup.WithNodes(128),
		cup.WithSeed(11),
		cup.WithQueryRate(20),
		cup.WithQueryDuration(cup.Seconds(900)),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// The acceptance pin: a flash-crowd sim's cup.Trace span trees must
// report exactly the cut-offs the metrics collector counted from the
// same event stream — the trace is a faithful decomposition, not a
// parallel estimate.
func TestFlashCrowdTraceCutoffsMatchCounter(t *testing.T) {
	d, _ := flashCrowdWithTelemetry(t)

	counted, ok := d.MetricValue("cup_cutoffs_total")
	if !ok {
		t.Fatal("cup_cutoffs_total not registered")
	}
	if counted == 0 {
		t.Fatal("flash-crowd run fired no cut-offs; the scenario no longer exercises §2.7")
	}

	traced := 0.0
	cutoffSpans := 0
	for _, k := range d.TraceKeys() {
		tr, ok := d.Trace(k)
		if !ok {
			t.Fatalf("TraceKeys lists %q but Trace reports no data", k)
		}
		traced += float64(tr.Cutoffs)
		for _, s := range tr.Spans {
			if s.Cutoffs > 0 {
				if s.Outcome != "cut-off" {
					t.Errorf("span %v fired %d cut-offs but outcome = %q", s.Node, s.Cutoffs, s.Outcome)
				}
				cutoffSpans++
			}
		}
	}
	if traced != counted {
		t.Errorf("trace cut-offs = %g, counter = %g (must match exactly)", traced, counted)
	}
	if cutoffSpans == 0 {
		t.Error("no span carries the cut-off outcome despite a non-zero counter")
	}
}

// Every propagation tree must have a root at depth 0 (the authority) and
// parent edges consistent with depths.
func TestFlashCrowdTraceTreeShape(t *testing.T) {
	d, _ := flashCrowdWithTelemetry(t)
	for _, k := range d.TraceKeys() {
		tr, _ := d.Trace(k)
		if tr.Root != d.Authority(k) {
			t.Errorf("key %q: trace root %v, authority %v", k, tr.Root, d.Authority(k))
		}
		depth := map[cup.NodeID]int{}
		for _, s := range tr.Spans {
			depth[s.Node] = s.Depth
		}
		last := -2
		for _, s := range tr.Spans {
			// Spans arrive depth-ordered, unknown (-1) depths last.
			d := s.Depth
			if d < 0 {
				d = 1 << 20
			}
			if d < last {
				t.Errorf("key %q: spans out of depth order at node %v", k, s.Node)
			}
			last = d
			if s.Depth > 0 {
				pd, ok := depth[s.Parent]
				if !ok || pd != s.Depth-1 {
					t.Errorf("key %q: node %v at depth %d has parent %v at depth %d",
						k, s.Node, s.Depth, s.Parent, pd)
				}
			}
		}
	}
}

// The collector's "local" coalescing series mirrors the driver's
// Coalesced counter exactly: both count queries absorbed by an
// already-pending PFU flag at the issuing node.
func TestCoalescedMetricMatchesCounters(t *testing.T) {
	d, res := flashCrowdWithTelemetry(t)
	local, ok := d.MetricValue("cup_queries_coalesced_total",
		cup.MetricLabel{Key: "source", Value: "local"})
	if !ok {
		t.Fatal("cup_queries_coalesced_total{source=local} not registered")
	}
	if local != float64(res.Counters.Coalesced) {
		t.Errorf("metric reports %g locally coalesced queries, counters %d",
			local, res.Counters.Coalesced)
	}
	if local == 0 {
		t.Error("flash crowd coalesced nothing; the herd is not herding")
	}
}

// Answer-latency observations must cover every answered query, and the
// histogram sum must stay consistent with the per-event latencies.
func TestQueryLatencyHistogramPopulated(t *testing.T) {
	d, _ := flashCrowdWithTelemetry(t)
	answered, _ := d.MetricValue("cup_events_total",
		cup.MetricLabel{Key: "kind", Value: "query-answered"})
	samples, ok := d.MetricValue("cup_query_latency_seconds")
	if !ok {
		t.Fatal("cup_query_latency_seconds not registered")
	}
	if samples != answered || samples == 0 {
		t.Errorf("latency histogram holds %g samples, %g queries answered", samples, answered)
	}
	var sum float64
	for _, m := range d.Metrics() {
		if m.Name == "cup_query_latency_seconds" {
			sum = m.Sum
		}
	}
	if sum <= 0 {
		t.Errorf("latency sum = %g; misses should have accumulated positive latency", sum)
	}
}

// The simulator's event queue is one unlabelled gauge read from the
// scheduler at scrape time: a freshly built scripted run already holds
// its replica births and first arrival.
func TestSimQueueDepthGauge(t *testing.T) {
	d := newDeployment(t, cup.WithTelemetry(""), cup.WithNodes(32), cup.WithSeed(1))
	depth, ok := d.MetricValue("cup_sim_queue_depth")
	if !ok {
		t.Fatal("cup_sim_queue_depth not registered")
	}
	if depth <= 0 {
		t.Errorf("cup_sim_queue_depth = %g before Run, want the armed workload's pending events", depth)
	}
}

// A live deployment with WithTelemetry serves Prometheus /metrics with
// non-zero core series, the JSON trace endpoints, and /debug/pprof.
func TestLiveTelemetryServesMetricsAndPprof(t *testing.T) {
	d, err := cup.New(
		cup.WithLive(),
		cup.WithTelemetry("127.0.0.1:0"),
		cup.WithNodes(16),
		cup.WithSeed(3),
		cup.WithHopDelay(500*time.Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	addr := d.TelemetryAddr()
	if addr == "" {
		t.Fatal("TelemetryAddr empty with a served WithTelemetry")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.Publish(ctx, "svc", 0, "198.51.100.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := d.LookupAt(ctx, cup.NodeID(i), "svc"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	cl := &http.Client{Timeout: 20 * time.Second}
	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := fetch("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", code)
	}
	for _, series := range []string{
		`cup_events_total{kind="query-issued"} 4`,
		`cup_events_total{kind="query-answered"} 4`,
		`cup_info{transport="live"`,
		"cup_nodes 16",
		"cup_live_port_budget",
		"cup_live_inbox_capacity",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %q:\n%s", series, body)
		}
	}

	code, body = fetch("/trace/svc")
	if code != http.StatusOK || !strings.Contains(body, `"spans"`) {
		t.Errorf("/trace/svc: HTTP %d body %q", code, body)
	}

	// A short CPU profile proves the pprof surface is wired end to end.
	code, body = fetch("/debug/pprof/profile?seconds=1")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/profile: HTTP %d, %d bytes", code, len(body))
	}
}

// Without WithTelemetry the accessors degrade gracefully instead of
// wiring collectors every deployment does not need.
func TestTelemetryAccessorsWithoutOption(t *testing.T) {
	d, err := cup.New(cup.WithNodes(8), cup.WithoutWorkload())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if m := d.Metrics(); m != nil {
		t.Errorf("Metrics without telemetry = %v, want nil", m)
	}
	if _, ok := d.MetricValue("cup_cutoffs_total"); ok {
		t.Error("MetricValue must report false without telemetry")
	}
	if _, ok := d.Trace("k"); ok {
		t.Error("Trace must report false without telemetry")
	}
	if addr := d.TelemetryAddr(); addr != "" {
		t.Errorf("TelemetryAddr = %q without a server", addr)
	}
}

// Simulated runs stay deterministic with the collector attached: two
// identical deployments must produce identical metric snapshots.
func TestTelemetryDeterministicAcrossRuns(t *testing.T) {
	snap := func() string {
		d, res := flashCrowdWithTelemetry(t)
		var b strings.Builder
		for _, m := range d.Metrics() {
			// Occupancy gauges are scrape-time reads; everything else in a
			// settled sim must be identical.
			fmt.Fprintf(&b, "%s%v=%g/%d\n", m.Name, m.Labels, m.Value, m.Count)
		}
		fmt.Fprintf(&b, "counters=%+v\n", res.Counters)
		return b.String()
	}
	if a, b := snap(), snap(); a != b {
		t.Errorf("telemetry snapshots diverged across identical runs:\n--- a\n%s--- b\n%s", a, b)
	}
}
