package experiment

import (
	"strconv"
	"strings"
	"testing"

	"cup"
	"cup/internal/metrics"
)

// tiny is the smallest useful scale for structural tests.
var tiny = Scale{Seed: 3}

// cell parses the leading integer of a table cell like "12345 (0.27)".
func cell(s string) uint64 {
	fields := strings.Fields(s)
	v, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		panic("bad cell: " + s)
	}
	return v
}

func TestScaleDefaults(t *testing.T) {
	sc := Scale{}
	if sc.duration() != 600 {
		t.Fatalf("reduced duration = %v", sc.duration())
	}
	if sc.rate(1000) >= 1000 {
		t.Fatalf("reduced rate = %v", sc.rate(1000))
	}
	if sc.rate(10) != 10 {
		t.Fatalf("low rates must not be clamped: %v", sc.rate(10))
	}
	full := Scale{Full: true}
	if full.duration() != 3000 || full.rate(1000) != 1000 || full.nodes(4096) != 4096 {
		t.Fatal("full scale altered the paper's parameters")
	}
	if sc.seed() != 1 || (Scale{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting broken")
	}
	// The scale sweep honours the override like every other experiment;
	// unset, it stays on Chord (the committed BENCH_core.json rows).
	if got := millionOverlay(sc); got != "chord" {
		t.Fatalf("million sweep default overlay = %q, want chord", got)
	}
	if got := millionOverlay(Scale{Overlay: "can"}); got != "can" {
		t.Fatalf("million sweep ignores Scale.Overlay: runs %q", got)
	}
}

func TestFig3ShapeHasInteriorMinimum(t *testing.T) {
	tb := Fig3PushLevel(tiny)
	if len(tb.Rows) != len(PushLevels) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(PushLevels))
	}
	// λ=1 totals: level 0 (standard caching) must be the most expensive,
	// and some interior level must beat the deepest level's miss cost
	// structure: total cost dips then stabilizes.
	first := cell(tb.Rows[0][1])
	min := first
	for _, row := range tb.Rows {
		if v := cell(row[1]); v < min {
			min = v
		}
	}
	if min >= first {
		t.Fatalf("no push level beat standard caching: min %d vs level0 %d", min, first)
	}
	// Miss cost must be monotone non-increasing in push level.
	prev := cell(tb.Rows[0][2])
	for i, row := range tb.Rows[1:] {
		cur := cell(row[2])
		if cur > prev+prev/10 { // allow 10% noise
			t.Fatalf("miss cost rose at level row %d: %d -> %d", i+1, prev, cur)
		}
		prev = cur
	}
}

func TestTable1SecondChanceBeatsStandardAndProbabilistic(t *testing.T) {
	tb := Table1Policies(tiny)
	byLabel := map[string][]string{}
	for _, row := range tb.Rows {
		byLabel[row[0]] = row[1:]
	}
	std := byLabel["Standard Caching"]
	sc := byLabel["Second-chance"]
	opt := byLabel["Optimal push level"]
	if std == nil || sc == nil || opt == nil {
		t.Fatalf("missing rows; have %v", tb.Rows)
	}
	for i := range std {
		if cell(sc[i]) >= cell(std[i]) {
			t.Fatalf("second-chance (%d) not below standard (%d) at column %d",
				cell(sc[i]), cell(std[i]), i)
		}
		if cell(opt[i]) > cell(std[i]) {
			t.Fatalf("optimal push level above standard at column %d", i)
		}
	}
	// The paper's headline: second-chance at least matches the
	// probability-based policies at the low rate (column 0). At reduced
	// scale the gap narrows, so allow 15% noise; the full-scale run in
	// EXPERIMENTS.md shows the paper's 1.5–2x separation.
	for label, cells := range byLabel {
		if strings.HasPrefix(label, "Linear") || strings.HasPrefix(label, "Logarithmic") {
			if float64(cell(sc[0])) > 1.15*float64(cell(cells[0])) {
				t.Fatalf("second-chance (%d) lost badly to %s (%d) at λ=1",
					cell(sc[0]), label, cell(cells[0]))
			}
		}
	}
}

func TestTable2RatiosBelowOne(t *testing.T) {
	tb := Table2NetworkSize(tiny)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for i, cellStr := range tb.Rows[0][1:] {
		v, err := strconv.ParseFloat(cellStr, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v >= 1 {
			t.Fatalf("miss-cost ratio column %d = %v, want < 1", i, v)
		}
	}
	// Standard-caching latency grows with network size.
	stdLat := tb.Rows[2]
	first, _ := strconv.ParseFloat(stdLat[1], 64)
	last, _ := strconv.ParseFloat(stdLat[len(stdLat)-1], 64)
	if last <= first {
		t.Fatalf("standard latency did not grow with n: %v .. %v", first, last)
	}
}

func TestTable3NaiveDegradesWithReplicas(t *testing.T) {
	tb := Table3ReplicasTable(tiny)
	// Rows are ordered most-replicas first; last row is 1 replica where
	// naive == replica-independent.
	lastRow := tb.Rows[len(tb.Rows)-1]
	if cell(lastRow[1]) != cell(lastRow[2]) {
		t.Fatalf("single replica: naive %d != replica-independent %d",
			cell(lastRow[1]), cell(lastRow[2]))
	}
	// With the most replicas, the naive cut-off must cost more misses
	// than the replica-independent fix (the paper's headline effect).
	top := tb.Rows[0]
	if cell(top[1]) <= cell(top[2]) {
		t.Fatalf("naive (%d) not worse than replica-independent (%d) at max replicas",
			cell(top[1]), cell(top[2]))
	}
}

func TestFigCapacityCUPAlwaysBeatsStandard(t *testing.T) {
	tb := Fig5Capacity(tiny)
	if len(tb.Rows) != len(Capacities) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		std := cell(row[3])
		if cell(row[1]) >= std || cell(row[2]) >= std {
			t.Fatalf("CUP above standard caching at capacity %s: %v", row[0], row)
		}
	}
}

func TestAblationOverlayChordAlsoWins(t *testing.T) {
	tb := AblationOverlay(tiny)
	for _, row := range tb.Rows {
		ratio, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio >= 1 {
			t.Fatalf("CUP lost on %s at λ=%s (ratio %v)", row[0], row[1], ratio)
		}
	}
}

func TestAblationCoalescingSavesQueryHops(t *testing.T) {
	tb := AblationCoalescing(tiny)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	stdHops, cupHops := cell(tb.Rows[0][3]), cell(tb.Rows[1][3])
	if cupHops >= stdHops {
		t.Fatalf("coalescing did not reduce query hops: %d vs %d", cupHops, stdHops)
	}
	if cell(tb.Rows[1][2]) == 0 {
		t.Fatal("no queries coalesced under the flash crowd")
	}
}

func TestAblationReorderingImprovesUsefulDeliveries(t *testing.T) {
	tb := AblationReordering(tiny)
	fifoUseful, reordUseful := cell(tb.Rows[0][1]), cell(tb.Rows[1][1])
	if reordUseful <= fifoUseful {
		t.Fatalf("re-ordering useful %d not above FIFO %d", reordUseful, fifoUseful)
	}
	if stale := cell(tb.Rows[1][2]); stale != 0 {
		t.Fatalf("re-ordering sent %d expired updates", stale)
	}
}

func TestAblationJustifiedMonotone(t *testing.T) {
	tb := AblationJustified(tiny)
	var prev float64 = -1
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v+0.08 < prev { // allow small noise
			t.Fatalf("justified fraction fell: %v after %v", v, prev)
		}
		if prev < v {
			prev = v
		}
	}
	if prev < 0.5 {
		t.Fatalf("justified fraction never exceeded 0.5 (max %v)", prev)
	}
}

func TestRegistryAndNamesAgree(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("Names() has %d entries, Registry %d", len(names), len(Registry))
	}
	for _, n := range names {
		if Registry[n] == nil {
			t.Fatalf("name %q missing from registry", n)
		}
	}
}

func TestTablesRenderNonEmpty(t *testing.T) {
	for name, gen := range Registry {
		if name == "fig4" || name == "fig6" || name == "table1" {
			continue // slower high-rate artifacts covered elsewhere
		}
		tb := gen(tiny)
		out := tb.Render()
		if len(out) < 40 || !strings.Contains(out, "==") {
			t.Fatalf("%s rendered %q", name, out)
		}
	}
}

// Golden pin for the parallel engine: the same sweep rendered at
// Parallelism 1 and 8 must be bit-identical, across all three overlays
// (AblationOverlay sweeps every registered kind at two rates).
func TestParallelSweepMatchesSequentialGolden(t *testing.T) {
	seq := AblationOverlay(Scale{Seed: 5, Parallelism: 1}).Render()
	par := AblationOverlay(Scale{Seed: 5, Parallelism: 8}).Render()
	if seq != par {
		t.Fatalf("parallel sweep diverged from sequential:\n--- sequential ---\n%s--- parallel ---\n%s", seq, par)
	}
}

// The engine returns results in trial order and re-raises worker panics
// on the collecting goroutine.
func TestEngineOrderAndPanicPropagation(t *testing.T) {
	eng := NewEngine(4)
	trials := make([]Trial, 6)
	for i := range trials {
		trials[i] = Trial{
			Label: "seed sweep",
			Opts: []cup.Option{
				cup.WithNodes(32),
				cup.WithQueryRate(float64(i + 1)),
				cup.WithQueryDuration(cup.Seconds(30)),
				cup.WithSeed(7),
			},
		}
	}
	results := eng.RunAll(trials)
	var prev uint64
	for i, res := range results {
		if res == nil || res.Counters.Queries == 0 {
			t.Fatalf("trial %d produced no queries", i)
		}
		if res.Counters.Queries < prev {
			t.Fatalf("results out of trial order: trial %d has %d queries after %d (rates are increasing)",
				i, res.Counters.Queries, prev)
		}
		prev = res.Counters.Queries
	}

	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate to Result()")
		}
	}()
	eng.Go(Trial{Opts: []cup.Option{cup.WithNodes(-1)}}).Result()
}

func TestDeterministicTables(t *testing.T) {
	a := Fig5Capacity(Scale{Seed: 11}).Render()
	b := Fig5Capacity(Scale{Seed: 11}).Render()
	if a != b {
		t.Fatal("experiment not deterministic for fixed seed")
	}
}

var _ = metrics.Table{} // keep the import explicit for documentation
