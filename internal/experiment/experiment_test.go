package experiment

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cup"
	"cup/internal/metrics"
	"cup/internal/overlay"
)

// paperArtefacts are §3's seven tables and figures, committed at seed 1
// under testdata/paper. highRate marks the four with a λ ≥ 100 column —
// 18 of the package's 19 CPU-seconds — which -short skips.
var (
	paperArtefacts = []string{"fig3", "fig4", "table1", "table2", "table3", "fig5", "fig6"}
	highRate       = map[string]bool{"fig4": true, "table1": true, "table3": true, "fig6": true}
)

// Every table these tests look at is generated once, on one pool, and
// shared: the golden comparison and the shape tests read the same
// seed-1 tables. The pool has at least two workers, so its tables are
// the product of parallel dispatch on a one-core machine too.
var (
	pool   = NewEngine(max(2, runtime.GOMAXPROCS(0)))
	memoMu sync.Mutex
	memo   = map[string]func() *metrics.Table{}
)

// memoized returns the table gen makes, making it the first time key
// is asked for.
func memoized(key string, gen func() *metrics.Table) *metrics.Table {
	memoMu.Lock()
	once := memo[key]
	if once == nil {
		once = sync.OnceValue(gen)
		memo[key] = once
	}
	memoMu.Unlock()
	return once()
}

// table returns the named experiment's table at seed, off the shared
// pool.
func table(name string, seed int64) *metrics.Table {
	return tableAt(name, Scale{Seed: seed})
}

// tableAt returns the named experiment's table at sc's seed, size and
// overlay, off the shared pool.
func tableAt(name string, sc Scale) *metrics.Table {
	key := fmt.Sprintf("%s/%d/%d/%s", name, sc.seed(), sc.nodes(), sc.Overlay)
	return memoized(key, func() *metrics.Table {
		sc.eng = pool
		return Registry[name](sc)
	})
}

// sequentialOverlay is table("overlay", 1) from a pool of one.
func sequentialOverlay() *metrics.Table {
	return memoized("overlay/sequential", func() *metrics.Table {
		return AblationOverlay(Scale{Seed: 1, Parallelism: 1})
	})
}

var (
	startOnce sync.Once
	// started counts the generators startOnce set going until each is done.
	started sync.WaitGroup
)

// paper returns a §3 artefact at seed 1. The first call starts every
// table the package's tests read — each experiment at seed 1, the
// sub-second artefacts at the other seeds, the one sequential sweep —
// so the pool's cost-ordered dispatch packs all their cells together
// instead of idling a worker at each table's tail.
func paper(t *testing.T, name string) *metrics.Table {
	t.Helper()
	if testing.Short() && highRate[name] {
		t.Skipf("%s has a λ ≥ 100 column; skipped under -short", name)
	}
	startOnce.Do(func() {
		start := func(f func()) {
			started.Add(1)
			go func() {
				defer started.Done()
				f()
			}()
		}
		start(func() { sequentialOverlay() })
		start(func() { tableAt("fig3", fig3Chord) })
		start(func() { crossover() })
		for n := range Registry {
			if !testing.Short() || !highRate[n] {
				start(func() { table(n, 1) })
			}
		}
		for _, n := range paperArtefacts {
			if highRate[n] {
				continue
			}
			for _, seed := range seeds[1:] {
				start(func() { table(n, seed) })
			}
		}
	})
	return table(name, 1)
}

// seeds are what a shape claim about a sub-second artefact is checked
// over, so that it is not a property of seed 1.
var seeds = []int64{1, 2, 3, 4, 5}

// cell parses the leading integer of a table cell like "12345 (0.27)".
func cell(s string) uint64 {
	fields := strings.Fields(s)
	v, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		panic("bad cell: " + s)
	}
	return v
}

// The parameters are the paper's (§3.2): what base hands cup.New is a
// 3000 s window and the rate it was asked for, un-clamped, and the
// sweeps reach λ = 1000, n = 4096 and 100 replicas.
func TestScaleDefaults(t *testing.T) {
	sc := Scale{}
	p := run(append(sc.base(1000), cup.WithoutWorkload())...).Params
	if p.QueryDuration != 3000 || p.QueryRate != 1000 || p.Nodes != 1024 || p.Seed != 1 {
		t.Fatalf("base(1000) resolved to a %v s window at λ=%v on %d nodes, seed %d",
			p.QueryDuration, p.QueryRate, p.Nodes, p.Seed)
	}
	if Table1Rates[len(Table1Rates)-1] != 1000 || Table2Sizes[len(Table2Sizes)-1] != 4096 || Table3Replicas[0] != 100 {
		t.Fatalf("sweeps stop short of the paper's: rates %v, sizes %v, replicas %v",
			Table1Rates, Table2Sizes, Table3Replicas)
	}
	if sc.seed() != 1 || (Scale{Seed: 9}).seed() != 9 {
		t.Fatal("seed defaulting broken")
	}
	// Scale.Nodes reaches cup.New through base; unset, it is the paper's
	// 1024.
	if n := run(append(fig3Chord.base(1), cup.WithoutWorkload())...).Params.Nodes; n != 16384 {
		t.Fatalf("Scale{Nodes: 1 << 14} resolved to %d nodes, want 16384", n)
	}
}

// The reproduction is a checked artefact: each §3 table at seed 1 is
// byte for byte the committed file, which `cupbench -workers 1 -exp
// <name>` wrote — so this is also the sequential sweep against the
// parallel one at the paper's scale. Regenerate a file with
// `go run ./cmd/cupbench -exp <name> > internal/experiment/testdata/paper/<name>.txt`
// and say in the commit why it moved.
func TestPaperTablesMatchGolden(t *testing.T) {
	for _, name := range paperArtefacts {
		t.Run(name, func(t *testing.T) {
			got := paper(t, name).Render()
			want, err := os.ReadFile(filepath.Join("testdata", "paper", name+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("%s differs from its committed table:\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// fig3Chord is Figure 3 past the paper's sizes: Chord at 2^14 nodes.
var fig3Chord = Scale{Nodes: 1 << 14, Overlay: "chord"}

// Figure 3's shape, on the paper's 1024-node CAN over seeds 1–5 and on
// Chord at 2^14 at seed 1: some push level beats standard caching at
// λ = 1, and miss cost does not rise with the level.
func TestFig3ShapeHasInteriorMinimum(t *testing.T) {
	paper(t, "fig3")
	for _, c := range []struct {
		sc    Scale
		seeds []int64
	}{
		{Scale{}, seeds},
		{fig3Chord, seeds[:1]},
	} {
		for _, seed := range c.seeds {
			sc := c.sc
			sc.Seed = seed
			at := fmt.Sprintf("n=%d %s seed %d", sc.nodes(), cmp.Or(sc.Overlay, "can"), seed)
			tb := tableAt("fig3", sc)
			if len(tb.Rows) != len(PushLevels) {
				t.Fatalf("%s: rows = %d, want %d", at, len(tb.Rows), len(PushLevels))
			}
			// λ=1 totals: level 0 (standard caching) must be the most
			// expensive: total cost dips then stabilizes.
			first := cell(tb.Rows[0][1])
			min := first
			for _, row := range tb.Rows {
				if v := cell(row[1]); v < min {
					min = v
				}
			}
			if min >= first {
				t.Fatalf("%s: no push level beat standard caching: min %d vs level0 %d", at, min, first)
			}
			// Miss cost must be monotone non-increasing in push level.
			prev := cell(tb.Rows[0][2])
			for i, row := range tb.Rows[1:] {
				cur := cell(row[2])
				if cur > prev+prev/10 { // allow 10% noise
					t.Fatalf("%s: miss cost rose at level row %d: %d -> %d", at, i+1, prev, cur)
				}
				prev = cur
			}
		}
	}
}

func TestTable1SecondChanceBeatsStandardAndProbabilistic(t *testing.T) {
	tb := paper(t, "table1")
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
	// The paper's headline: second-chance beats every probability-based
	// policy, at every rate.
	for label, cells := range byLabel {
		if strings.HasPrefix(label, "Linear") || strings.HasPrefix(label, "Logarithmic") {
			for i := range cells {
				if cell(sc[i]) >= cell(cells[i]) {
					t.Fatalf("second-chance (%d) not below %s (%d) at column %d",
						cell(sc[i]), label, cell(cells[i]), i)
				}
			}
		}
	}
}

// Table 1's Linear α ∈ {0.01, 0.001} and Logarithmic α ∈ {0.10, 0.01}
// rows are identical to the digit because they are one rule: popularity
// is an integer, and α·D and α·lg D stay below 1 for every distance D a
// 1024-node CAN reaches, so each keeps a key iff at least one query
// arrived since the last update. The one exception is in the formula,
// not the table: lg 1 = 0, so Logarithmic keeps an authority's
// neighbour (D = 1) even at zero queries — which no run reaches, that
// neighbour relaying a share of every other node's queries.
func TestTable1LowAlphaRowsAreOneRule(t *testing.T) {
	maxHops := 0
	for _, seed := range seeds {
		ov := overlay.MustBuild("can", 1024, seed)
		for id := 0; id < ov.Size(); id++ {
			maxHops = max(maxHops, overlay.Distance(ov, overlay.NodeID(id), "content-0", 4*ov.Size()))
		}
	}
	// Linear(0.01) is the first of the four to ask for a second query,
	// at D = 100.
	t.Logf("longest route on a 1024-node CAN over seeds %v: %d hops", seeds, maxHops)
	if maxHops < 8 || maxHops >= 100 {
		t.Fatalf("longest route on a 1024-node CAN = %d hops, want within [8, 100)", maxHops)
	}
	oneRule := map[string]bool{
		"Linear, α=0.01": true, "Linear, α=0.001": true,
		"Logarithmic, α=0.10": true, "Logarithmic, α=0.01": true,
	}
	for _, pr := range table1Policies() {
		if !oneRule[pr.label] {
			continue
		}
		var idle int32
		for d := 1; d <= maxHops; d++ {
			for q := 0; q <= 3; q++ {
				want := q >= 1 || (d == 1 && strings.HasPrefix(pr.label, "Logarithmic"))
				if got := pr.pol.Keep(q, d, &idle); got != want {
					t.Fatalf("%s: Keep(queries=%d, D=%d) = %v, want %v", pr.label, q, d, got, want)
				}
			}
		}
	}
	if testing.Short() {
		return
	}
	var first []string
	for _, row := range paper(t, "table1").Rows {
		if !oneRule[row[0]] {
			continue
		}
		if first == nil {
			first = row
		}
		if !slices.Equal(row[1:], first[1:]) {
			t.Fatalf("%s %v differs from %s %v", row[0], row[1:], first[0], first[1:])
		}
	}
}

func TestTable2RatiosBelowOne(t *testing.T) {
	paper(t, "table2")
	for _, seed := range seeds {
		tb := table("table2", seed)
		if len(tb.Rows) != 4 {
			t.Fatalf("seed %d: rows = %d, want 4", seed, len(tb.Rows))
		}
		for i, cellStr := range tb.Rows[0][1:] {
			v, err := strconv.ParseFloat(cellStr, 64)
			if err != nil {
				t.Fatal(err)
			}
			if v >= 1 {
				t.Fatalf("seed %d: miss-cost ratio column %d = %v, want < 1", seed, i, v)
			}
		}
		// Standard-caching latency grows with network size.
		stdLat := tb.Rows[2]
		first, _ := strconv.ParseFloat(stdLat[1], 64)
		last, _ := strconv.ParseFloat(stdLat[len(stdLat)-1], 64)
		if last <= first {
			t.Fatalf("seed %d: standard latency did not grow with n: %v .. %v", seed, first, last)
		}
	}
}

func TestTable3NaiveDegradesWithReplicas(t *testing.T) {
	tb := paper(t, "table3")
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
	check := func(what string, tb *metrics.Table) {
		if len(tb.Rows) != len(Capacities) {
			t.Fatalf("%s: rows = %d", what, len(tb.Rows))
		}
		for _, row := range tb.Rows {
			std := cell(row[3])
			if cell(row[1]) >= std || cell(row[2]) >= std {
				t.Fatalf("%s: CUP above standard caching at capacity %s: %v", what, row[0], row)
			}
		}
	}
	paper(t, "fig5")
	for _, seed := range seeds {
		check(fmt.Sprintf("fig5 seed %d", seed), table("fig5", seed))
	}
	if !testing.Short() {
		check("fig6", paper(t, "fig6"))
	}
}

func TestAblationOverlayChordAlsoWins(t *testing.T) {
	tb := table("overlay", 1)
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
	tb := table("coalesce", 1)
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
	tb := table("reorder", 1)
	fifoUseful, reordUseful := cell(tb.Rows[0][1]), cell(tb.Rows[1][1])
	if reordUseful <= fifoUseful {
		t.Fatalf("re-ordering useful %d not above FIFO %d", reordUseful, fifoUseful)
	}
	if stale := cell(tb.Rows[1][2]); stale != 0 {
		t.Fatalf("re-ordering sent %d expired updates", stale)
	}
}

func TestAblationJustifiedMonotone(t *testing.T) {
	tb := table("justified", 1)
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
	for name := range Registry {
		if testing.Short() && highRate[name] {
			continue
		}
		out := table(name, 1).Render()
		if len(out) < 40 || !strings.Contains(out, "==") {
			t.Fatalf("%s rendered %q", name, out)
		}
	}
}

// Golden pin for the parallel engine: the same sweep rendered
// sequentially and in parallel must be bit-identical, across all three
// overlays (AblationOverlay sweeps every registered kind at two rates).
// The parallel side is the shared pool's table, whose cells ran
// interleaved with every other sweep's.
func TestParallelSweepMatchesSequentialGolden(t *testing.T) {
	seq := sequentialOverlay().Render()
	par := table("overlay", 1).Render()
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
