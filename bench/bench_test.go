package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"cup/internal/metrics"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.51, 6}, {0.95, 10}, {1, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if lo, hi := percentile([]float64{3, 4}, 0.5), percentile([]float64{3, 4}, 0.95); lo != 3 || hi != 4 {
		t.Errorf("two samples: p50 = %v, p95 = %v, want the lower and the upper", lo, hi)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("no samples must not read as a number")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input = %v, want 5", got)
	}
	ms := latencies{3 * time.Millisecond, time.Millisecond}.sortedMs()
	if ms[0] != 1 || ms[1] != 3 {
		t.Errorf("sortedMs = %v", ms)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.get", Req: 7, Start: 0, End: 100},
		// Overlapping children cover [10,70) once, not 30+50.
		{ID: 2, Parent: 1, Name: "http.roundtrip", Req: 7, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "http.roundtrip", Req: 7, Start: 20, End: 70},
		{ID: 4, Name: "client.get", Req: 8, Start: 200, End: 230},
	}
	st := selfTimes(spans)
	if got := st["client.get"]; got.Count != 2 || got.Total != 130 || got.Self != 70 {
		t.Errorf("client.get = %+v, want count 2 total 130 self 70", got)
	}
	if got := st["http.roundtrip"]; got.Total != 80 || got.Self != 80 {
		t.Errorf("http.roundtrip = %+v, want total and self 80", got)
	}
	if !nested(spans) {
		t.Error("children inside their parent with its request ID must nest")
	}
	escaped := append([]span(nil), spans...)
	escaped[2].End = 120
	if nested(escaped) {
		t.Error("a child ending after its parent must not nest")
	}
	foreign := append([]span(nil), spans...)
	foreign[1].Req = 9
	if nested(foreign) {
		t.Error("a child with another request ID must not nest")
	}
}

func TestTracerRecordsAndNilIsSilent(t *testing.T) {
	var off *tracer
	log := off.log()
	s := log.begin("x", 0, 1)
	log.end(s)
	if log.id(s) != 0 || off.all() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	a, b := tr.log(), tr.log()
	pa := a.begin("parent", 0, 1)
	ca := a.begin("child", a.id(pa), 1)
	a.end(ca)
	a.end(pa)
	b.end(b.begin("other", 0, 2))
	spans := tr.all()
	if len(spans) != 3 || !nested(spans) {
		t.Fatalf("got %d spans, nested=%v", len(spans), nested(spans))
	}
	ids := map[int64]bool{}
	for _, s := range spans {
		ids[s.ID] = true
	}
	if len(ids) != 3 {
		t.Error("span IDs must be unique across logs")
	}
}

var agreeSpec = &spec{EndToEnd: []metricSpec{
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "rps", Unit: "1/s", Better: "higher", Bound: 0.05},
}}

func set(runS, rps float64, attempted, failed int) *resultSet {
	return &resultSet{Workloads: map[string]*outcome{"w": {
		Workload: "w", Attempted: attempted, Failed: failed,
		E2E: map[string]float64{"run_s": runS, "rps": rps},
	}}}
}

func TestAgree(t *testing.T) {
	cases := []struct {
		name string
		a, b *resultSet
		want bool
	}{
		{"within bound", set(10, 1000, 100, 0), set(10.9, 960, 100, 0), true},
		{"lower-is-better outside bound", set(10, 1000, 100, 0), set(11.1, 1000, 100, 0), false},
		{"higher-is-better outside bound", set(10, 1000, 100, 0), set(10, 940, 100, 0), false},
		{"fail share within absolute bound", set(10, 1000, 10000, 0), set(10, 1000, 10000, 9), true},
		{"fail share outside absolute bound", set(10, 1000, 10000, 0), set(10, 1000, 10000, 11), false},
	}
	for _, c := range cases {
		// Two runs of one commit repeat or they do not: the verdict
		// must not depend on which file is named first.
		for _, order := range [][2]*resultSet{{c.a, c.b}, {c.b, c.a}} {
			var buf bytes.Buffer
			if got := agree(&buf, agreeSpec, order[0], order[1]); got != c.want {
				t.Errorf("%s: agree = %v, want %v\n%s", c.name, got, c.want, buf.String())
			}
		}
	}

	missing := set(10, 1000, 100, 0)
	delete(missing.Workloads["w"].E2E, "rps")
	var buf bytes.Buffer
	if agree(&buf, agreeSpec, set(10, 1000, 100, 0), missing) {
		t.Error("a metric missing from one set must not agree")
	}
	if !strings.Contains(buf.String(), "rps") || !strings.Contains(buf.String(), "MISS") {
		t.Errorf("the missing metric must be named:\n%s", buf.String())
	}
	gone := &resultSet{Workloads: map[string]*outcome{}}
	if agree(&buf, agreeSpec, set(10, 1000, 100, 0), gone) {
		t.Error("a workload missing from one set must not agree")
	}
}

func TestDiffCellsNamesFirstField(t *testing.T) {
	tenth, fifth := 0.1, 0.2 // variables: the constant 0.1 + 0.2 is folded exactly
	sum := tenth + fifth
	want := []cellResult{{Label: "a", Counters: metrics.Counters{Queries: 5, MissLatencyTotal: sum}}}
	same := []cellResult{{Label: "a", Counters: metrics.Counters{Queries: 5, MissLatencyTotal: sum}}}
	if d := diffCells(want, same); d != "" {
		t.Errorf("identical cells differ: %s", d)
	}
	// 0.3 and 0.1+0.2 print alike at six digits but differ in the last bit.
	if sum == 0.3 {
		t.Fatal("test premise: 0.1+0.2 != 0.3 in float64")
	}
	ulp := []cellResult{{Label: "a", Counters: metrics.Counters{Queries: 5, MissLatencyTotal: 0.3}}}
	if d := diffCells(want, ulp); !strings.Contains(d, "MissLatencyTotal") {
		t.Errorf("floats must compare bit-exact, got %q", d)
	}
	hits := []cellResult{{Label: "a", Counters: metrics.Counters{Queries: 5, Hits: 1, MissLatencyTotal: sum}}}
	if d := diffCells(want, hits); !strings.Contains(d, `"a"`) || !strings.Contains(d, "Hits") {
		t.Errorf("diff must name cell and field, got %q", d)
	}
	if d := diffCells(want, nil); d == "" {
		t.Error("a missing cell must differ")
	}
}

func TestCheckIdentities(t *testing.T) {
	good := metrics.Counters{Queries: 10, Hits: 7, FirstTimeMisses: 2, FreshnessMisses: 1, QueryHops: 4, ResponseHops: 4}
	overhead := good
	overhead.UpdateHops = 3
	fewer := good
	fewer.Queries, fewer.Hits = 9, 6
	cases := []struct {
		name  string
		cells []cellResult
		fails int
	}{
		{"holds", []cellResult{{Label: "a", Lambda: 1, Level: 0, Counters: good}, {Label: "b", Lambda: 1, Level: 5, Counters: overhead}}, 0},
		{"standard caching with overhead", []cellResult{{Label: "a", Lambda: 1, Level: 0, Counters: overhead}}, 1},
		{"hits and misses do not add up", []cellResult{{Label: "a", Lambda: 1, Level: 5, Counters: metrics.Counters{Queries: 10, Hits: 7}}}, 1},
		{"unequal queries within one rate", []cellResult{{Label: "a", Lambda: 1, Level: 5, Counters: good}, {Label: "b", Lambda: 1, Level: 10, Counters: fewer}}, 1},
		{"no queries", []cellResult{{Label: "a", Lambda: 1, Level: 5}}, 1},
	}
	for _, c := range cases {
		out := &outcome{}
		checkIdentities(out, c.cells)
		if out.Failed != c.fails {
			t.Errorf("%s: %d failures, want %d: %v", c.name, out.Failed, c.fails, out.Failures)
		}
	}
}

func TestResultLine(t *testing.T) {
	sp := &spec{
		EndToEnd: []metricSpec{{Name: "run_s", Unit: "s"}, {Name: "setup_s", Unit: "s"}},
		PerLayer: []metricSpec{{Name: "sim.events", Unit: "count"}, {Name: "wire.marshal_ns", Unit: "ns"}},
	}
	o := &outcome{Workload: "w", Attempted: 3, E2E: map[string]float64{"run_s": 1.5, "setup_s": 0.25},
		Layers: map[string]float64{"sim.events": 42}}
	rl, err := o.line(sp, false)
	if err != nil || !rl.Correct || len(rl.Metrics) != 2 || rl.Metrics["run_s"] != (metricValue{1.5, "s"}) {
		t.Errorf("untraced line = %+v, %v", rl, err)
	}
	rl, err = o.line(sp, true)
	if err != nil || len(rl.Metrics) != 2 || rl.Metrics["sim.events"].Value != 42 || rl.Metrics["wire.marshal_ns"].Value != 0 {
		t.Errorf("traced line must hold every per-layer metric, 0 where not exercised: %+v, %v", rl, err)
	}
	o.Layers["undeclared"] = 1
	if _, err := o.line(sp, true); err == nil {
		t.Error("a layer metric BENCHMARK.json does not declare must be refused")
	}
	delete(o.E2E, "setup_s")
	if _, err := o.line(sp, false); err == nil {
		t.Error("a missing end-to-end metric must be an error")
	}
	o.Failed = 1
	o.E2E["setup_s"] = 1
	if rl, _ := o.line(sp, false); rl.Correct {
		t.Error("a run with failures is not correct")
	}
}

// TestSpecMeetsContract holds BENCHMARK.json to the limits the driver
// refuses a file for, and to this program's own workload list.
func TestSpecMeetsContract(t *testing.T) {
	sp, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q breaks the contract's pattern", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is required")
	}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the contract's pattern", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
}
