package metrics

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1}, {0.2, 1}, {0.4, 2}, {0.5, 3}, {0.9, 5}, {1, 5},
	}
	for _, c := range cases {
		if got := Percentile(samples, c.q); got != c.want {
			t.Errorf("Percentile(q=%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if samples[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("Percentile(nil) = %d, want 0", got)
	}
}

// TestPercentileEdgeCases pins the nearest-rank semantics at the
// boundaries the latency histograms build on: empty input, the extreme
// quantiles (and beyond), single samples, and unsorted input.
func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile([]time.Duration{}, 0.5); got != 0 {
		t.Errorf("empty sample set: got %d, want 0", got)
	}
	if got := Percentile(nil, 1); got != 0 {
		t.Errorf("nil sample set: got %d, want 0", got)
	}

	samples := []time.Duration{40, 10, 30, 20} // unsorted on purpose
	if got := Percentile(samples, 0); got != 10 {
		t.Errorf("q=0: got %d, want the minimum 10", got)
	}
	if got := Percentile(samples, 1); got != 40 {
		t.Errorf("q=1: got %d, want the maximum 40", got)
	}
	// Out-of-range quantiles clamp to the extremes.
	if got := Percentile(samples, -0.5); got != 10 {
		t.Errorf("q<0: got %d, want 10", got)
	}
	if got := Percentile(samples, 1.5); got != 40 {
		t.Errorf("q>1: got %d, want 40", got)
	}
	// Nearest rank on unsorted input: ceil(0.5·4) = rank 2 → 20.
	if got := Percentile(samples, 0.5); got != 20 {
		t.Errorf("median of unsorted input: got %d, want 20", got)
	}
	if samples[0] != 40 || samples[1] != 10 || samples[2] != 30 || samples[3] != 20 {
		t.Errorf("Percentile mutated its input: %v", samples)
	}

	// A single sample is every quantile.
	one := []time.Duration{7}
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := Percentile(one, q); got != 7 {
			t.Errorf("single sample at q=%g: got %d, want 7", q, got)
		}
	}
}

func TestCountersIdentities(t *testing.T) {
	c := Counters{
		Queries: 100, Hits: 60,
		QueryHops: 50, ResponseHops: 50,
		UpdateHops: 30, ClearBitHops: 10,
	}
	if c.Misses() != 40 {
		t.Fatalf("Misses = %d", c.Misses())
	}
	if c.MissCost() != 100 {
		t.Fatalf("MissCost = %d", c.MissCost())
	}
	if c.Overhead() != 40 {
		t.Fatalf("Overhead = %d", c.Overhead())
	}
	if c.TotalCost() != 140 {
		t.Fatalf("TotalCost = %d", c.TotalCost())
	}
	if got := c.MissLatencyHops(); got != 2.5 {
		t.Fatalf("MissLatencyHops = %v", got)
	}
}

// Add folds every field: a Counters with each field set, added to
// itself, has each field doubled — a field Add forgets stays put.
func TestCountersAddFoldsEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		default:
			t.Fatalf("field %s is a %v; teach Add and this test about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	sum := c
	sum.Add(&c)
	s := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		var doubled bool
		if v.Field(i).Kind() == reflect.Uint64 {
			doubled = s.Field(i).Uint() == 2*v.Field(i).Uint()
		} else {
			doubled = s.Field(i).Float() == 2*v.Field(i).Float()
		}
		if !doubled {
			t.Errorf("Add left %s at %v (addend %v)", v.Type().Field(i).Name, s.Field(i), v.Field(i))
		}
	}
}

func TestMissLatencyZeroMisses(t *testing.T) {
	c := Counters{Queries: 10, Hits: 10}
	if c.MissLatencyHops() != 0 {
		t.Fatal("latency with zero misses should be 0")
	}
}

func TestMissLatencySeconds(t *testing.T) {
	c := Counters{MissLatencyTotal: 10, MissesServed: 4}
	if got := c.MissLatencySeconds(); got != 2.5 {
		t.Fatalf("MissLatencySeconds = %v", got)
	}
	if (&Counters{}).MissLatencySeconds() != 0 {
		t.Fatal("zero served should be 0")
	}
}

func TestJustifiedFraction(t *testing.T) {
	c := Counters{JustifiedUpdates: 3, UnjustifiedUpdates: 1}
	if got := c.JustifiedFraction(); got != 0.75 {
		t.Fatalf("JustifiedFraction = %v", got)
	}
	if (&Counters{}).JustifiedFraction() != 0 {
		t.Fatal("empty fraction should be 0")
	}
}

func TestSavedMissRatio(t *testing.T) {
	std := Counters{QueryHops: 500, ResponseHops: 500}
	c := Counters{QueryHops: 100, ResponseHops: 100, UpdateHops: 100}
	if got := c.SavedMissRatio(&std); got != 8 {
		t.Fatalf("SavedMissRatio = %v, want 8", got)
	}
	noOverhead := Counters{}
	if noOverhead.SavedMissRatio(&std) != 0 {
		t.Fatal("zero overhead should yield 0 ratio")
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{Queries: 5, Hits: 3, QueryHops: 4, ResponseHops: 4}
	s := c.String()
	for _, want := range []string{"queries=5", "misses=2", "missCost=8"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tb := &Table{
		Title:  "Demo",
		Header: []string{"name", "value"},
	}
	tb.AddRow("a", "1")
	tb.AddRow("long-name", "22")
	out := tb.Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("render lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "== Demo ==") {
		t.Fatalf("title line = %q", lines[0])
	}
	// Column two must start at the same offset in every data row.
	h := strings.Index(lines[1], "value")
	if strings.Index(lines[3], "1") != h {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableCaption(t *testing.T) {
	tb := &Table{Header: []string{"x"}, Caption: "note"}
	tb.AddRow("1")
	if !strings.Contains(tb.Render(), "note") {
		t.Fatal("caption missing")
	}
}

func TestFormatHelpers(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.1234: "0.123",
		1.5:    "1.50",
		123.4:  "123",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
	if I(42) != "42" {
		t.Fatalf("I(42) = %q", I(42))
	}
	if I(uint64(7)) != "7" {
		t.Fatalf("I(uint64) = %q", I(uint64(7)))
	}
}

// Property: cost identities hold for arbitrary counter values.
func TestPropertyCostIdentities(t *testing.T) {
	f := func(q, r, u, cb uint32) bool {
		c := Counters{
			QueryHops: uint64(q), ResponseHops: uint64(r),
			UpdateHops: uint64(u), ClearBitHops: uint64(cb),
		}
		return c.TotalCost() == c.MissCost()+c.Overhead() &&
			c.MissCost() == uint64(q)+uint64(r) &&
			c.Overhead() == uint64(u)+uint64(cb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
