// Package experiment regenerates every table and figure of the CUP
// paper's evaluation (§3), plus ablations A1–A8 (ablation.go).
// Each experiment returns a metrics.Table whose rows mirror the paper's
// layout; cmd/cupbench prints them and bench_test.go wraps them in
// testing.B benchmarks.
//
// Every run is built through the public façade — cup.New with functional
// options — so the experiments exercise exactly the surface downstream
// users import.
//
// The workload is the paper's: 3000 s of querying, λ up to 1000
// queries/s, 1024 nodes (Table 2 sweeps n up to 4096). Scale.Nodes runs
// the same generators at another n. The seven §3 artefacts at seed 1
// are committed under testdata/paper and compared byte for byte by
// TestPaperTablesMatchGolden.
package experiment

import (
	"context"
	"fmt"
	"math"

	"cup"
	"cup/internal/metrics"
	"cup/internal/policy"
)

// Scale is what a caller may vary about the experiments; the workload
// itself is the paper's.
type Scale struct {
	// Seed varies the run deterministically.
	Seed int64
	// Overlay overrides the substrate for every experiment by its
	// overlay-registry name ("can", "chord", "kademlia"); empty keeps the
	// paper's CAN. The overlay ablation A1 sweeps all kinds regardless.
	Overlay string
	// Nodes is the network size of every run built on base; 0 keeps the
	// paper's 1024. Table 2 and the churn ablation sweep their own sizes.
	Nodes int
	// Parallelism caps the worker pool running a sweep's trials (0 =
	// GOMAXPROCS, 1 = sequential). The rendered tables are bit-identical
	// at any setting: trials are independent runs assembled in a fixed
	// order.
	Parallelism int
	// eng, when set, is a worker pool shared by every experiment run at
	// this Scale instead of one built per experiment: the package's tests
	// regenerate all of §3 on one pool.
	eng *Engine
}

func (s Scale) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

func (s Scale) nodes() int {
	if s.Nodes == 0 {
		return 1024
	}
	return s.Nodes
}

// queryWindow is the paper's 3000 s of querying (§3.2).
const queryWindow = 3000.0

// singleRun closes the caption of every §3 artefact: no cell is a mean.
const singleRun = "\nEvery cell is a single 3000 s run at one seed, as the paper's were."

// base builds the common options of the §3.3-§3.6 experiments:
// s.nodes() nodes, one key, one replica, lifetime 300 s. Every call
// returns a fresh slice, so per-run appends never alias.
func (s Scale) base(lambda float64) []cup.Option {
	return []cup.Option{
		cup.WithNodes(s.nodes()),
		cup.WithOverlay(s.Overlay),
		cup.WithQueryRate(lambda),
		cup.WithQueryDuration(cup.Seconds(queryWindow)),
		cup.WithSeed(s.seed()),
	}
}

// run builds a simulated deployment from opts and executes its scripted
// workload. Experiments are programming errors when they cannot build.
func run(opts ...cup.Option) *cup.Result {
	d, err := cup.New(opts...)
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	defer d.Close()
	res, err := d.Run(context.Background())
	if err != nil {
		panic(fmt.Sprintf("experiment: %v", err))
	}
	return res
}

// PushLevels is the level sweep used for Figures 3 and 4.
var PushLevels = []int{0, 5, 10, 15, 20, 25, 30}

// pushLevelOpts configures CUP propagating updates to every querying
// node at most level hops from the authority, regardless of
// justification (§3.3): the cut-off policy is all-out push, bounded only
// by the level. Level 0 is standard caching.
func pushLevelOpts(sc Scale, lambda float64, level int) []cup.Option {
	opts := sc.base(lambda)
	if level == 0 {
		opts = append(opts, cup.WithStandardCaching())
	} else {
		opts = append(opts,
			cup.WithPolicy(policy.AlwaysKeep()),
			cup.WithPushLevel(level))
	}
	return opts
}

// FigPushLevel regenerates one push-level figure: total cost and miss
// cost versus push level for the given rates (Figure 3 uses λ ∈ {1, 10},
// Figure 4 λ ∈ {100, 1000}). The level × rate grid runs as one parallel
// sweep, collected level-major.
func FigPushLevel(sc Scale, title string, rates []float64) *metrics.Table {
	t := &metrics.Table{Title: title}
	t.Header = []string{"push level"}
	for _, r := range rates {
		t.Header = append(t.Header,
			fmt.Sprintf("total λ=%g", r), fmt.Sprintf("miss λ=%g", r))
	}
	eng := sc.engine()
	cells := make([][]*Future, len(PushLevels))
	for i, lvl := range PushLevels {
		for _, r := range rates {
			cells[i] = append(cells[i], eng.submit(pushLevelOpts(sc, r, lvl)...))
		}
	}
	for i, lvl := range PushLevels {
		row := []string{metrics.I(lvl)}
		for _, f := range cells[i] {
			res := f.Result()
			row = append(row,
				metrics.I(res.Counters.TotalCost()),
				metrics.I(res.Counters.MissCost()))
		}
		t.AddRow(row...)
	}
	t.Caption = "Total and miss cost (hops) vs push level; level 0 = standard caching." + singleRun
	return t
}

// Fig3PushLevel reproduces Figure 3 (λ = 1 and 10 queries/s).
func Fig3PushLevel(sc Scale) *metrics.Table {
	return FigPushLevel(sc, "Figure 3: cost vs push level (λ=1, 10)", []float64{1, 10})
}

// Fig4PushLevel reproduces Figure 4 (λ = 100 and 1000 queries/s, log y).
func Fig4PushLevel(sc Scale) *metrics.Table {
	return FigPushLevel(sc, "Figure 4: cost vs push level (λ=100, 1000)", []float64{100, 1000})
}

// Table1Rates are the query rates compared across cut-off policies.
var Table1Rates = []float64{1, 10, 100, 1000}

// table1Policies enumerates the paper's Table 1 rows.
func table1Policies() []struct {
	label string
	pol   policy.Policy
} {
	return []struct {
		label string
		pol   policy.Policy
	}{
		{"Linear, α=0.25", policy.Linear(0.25)},
		{"Linear, α=0.10", policy.Linear(0.10)},
		{"Linear, α=0.01", policy.Linear(0.01)},
		{"Linear, α=0.001", policy.Linear(0.001)},
		{"Logarithmic, α=0.5", policy.Logarithmic(0.5)},
		{"Logarithmic, α=0.25", policy.Logarithmic(0.25)},
		{"Logarithmic, α=0.10", policy.Logarithmic(0.10)},
		{"Logarithmic, α=0.01", policy.Logarithmic(0.01)},
		{"Second-chance", policy.SecondChance()},
	}
}

// Table1Policies reproduces Table 1: total cost of standard caching, the
// probability-based cut-off policies, second-chance, and the optimal push
// level, for λ ∈ {1, 10, 100, 1000}. Cells show total cost and, in
// parentheses, the cost normalized by standard caching.
func Table1Policies(sc Scale) *metrics.Table {
	t := &metrics.Table{Title: "Table 1: total cost for varying cut-off policies"}
	t.Header = []string{"Policy"}
	for _, r := range Table1Rates {
		t.Header = append(t.Header, fmt.Sprintf("%g q/s", r))
	}

	// Submit the whole grid up front — the standard-caching baselines,
	// every policy × rate cell, and the push-level sweep behind the
	// "optimal" row — then collect in row order.
	eng := sc.engine()
	policies := table1Policies()
	stdF := make([]*Future, len(Table1Rates))
	for i, r := range Table1Rates {
		stdF[i] = eng.submit(append(sc.base(r), cup.WithStandardCaching())...)
	}
	polF := make([][]*Future, len(policies))
	for pi, pr := range policies {
		for _, r := range Table1Rates {
			polF[pi] = append(polF[pi], eng.submit(append(sc.base(r), cup.WithPolicy(pr.pol))...))
		}
	}
	lvlF := make([][]*Future, len(Table1Rates))
	for i, r := range Table1Rates {
		for _, lvl := range PushLevels[1:] {
			lvlF[i] = append(lvlF[i], eng.submit(pushLevelOpts(sc, r, lvl)...))
		}
	}

	std := make([]uint64, len(Table1Rates))
	for i, f := range stdF {
		std[i] = f.Result().Counters.TotalCost()
	}
	cell := func(total uint64, i int) string {
		return fmt.Sprintf("%d (%.2f)", total, float64(total)/math.Max(1, float64(std[i])))
	}

	row := []string{"Standard Caching"}
	for i := range Table1Rates {
		row = append(row, cell(std[i], i))
	}
	t.AddRow(row...)

	for pi, pr := range policies {
		row := []string{pr.label}
		for i := range Table1Rates {
			row = append(row, cell(polF[pi][i].Result().Counters.TotalCost(), i))
		}
		t.AddRow(row...)
	}

	// Optimal push level: the minimum over the figure sweep.
	row = []string{"Optimal push level"}
	for i := range Table1Rates {
		best := std[i]
		for _, f := range lvlF[i] {
			if c := f.Result().Counters.TotalCost(); c < best {
				best = c
			}
		}
		row = append(row, cell(best, i))
	}
	t.AddRow(row...)
	t.Caption = "Cells: total cost in hops (normalized by standard caching); the optimal push level is the cheapest of six runs.\n" +
		"Linear α ≤ 0.01 and Logarithmic α ≤ 0.10 are one row: popularity is an integer and α·D, α·lg D < 1 at every\n" +
		"distance D a 1024-node CAN reaches, so all four keep a key iff ≥ 1 query arrived since the last update\n" +
		"(lg 1 = 0 spares D = 1 even that, but an authority's neighbour relays too many queries ever to see none)." + singleRun
	return t
}

// Table2Sizes are the network sizes n = 2^k, k = 3..12.
var Table2Sizes = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Table2NetworkSize reproduces Table 2: CUP vs standard caching across
// network sizes at λ = 1 query/s with the second-chance policy.
func Table2NetworkSize(sc Scale) *metrics.Table {
	t := &metrics.Table{Title: "Table 2: CUP vs standard caching, varying network size (λ=1)"}
	t.Header = []string{"Metric"}
	for _, n := range Table2Sizes {
		t.Header = append(t.Header, metrics.I(n))
	}
	eng := sc.engine()
	stdF := make([]*Future, len(Table2Sizes))
	cupF := make([]*Future, len(Table2Sizes))
	for i, n := range Table2Sizes {
		stdF[i] = eng.submit(append(sc.base(1), cup.WithNodes(n), cup.WithStandardCaching())...)
		cupF[i] = eng.submit(append(sc.base(1), cup.WithNodes(n))...)
	}
	ratio := []string{"CUP / STD caching miss cost"}
	cupLat := []string{"CUP miss latency"}
	stdLat := []string{"STD caching miss latency"}
	saved := []string{"Saved miss hops per CUP overhead hop"}
	for i := range Table2Sizes {
		std := stdF[i].Result()
		cupRes := cupF[i].Result()
		ratio = append(ratio, metrics.F(
			float64(cupRes.Counters.MissCost())/math.Max(1, float64(std.Counters.MissCost()))))
		cupLat = append(cupLat, metrics.F(cupRes.Counters.MissLatencyHops()))
		stdLat = append(stdLat, metrics.F(std.Counters.MissLatencyHops()))
		saved = append(saved, metrics.F(cupRes.Counters.SavedMissRatio(&std.Counters)))
	}
	t.AddRow(ratio...)
	t.AddRow(cupLat...)
	t.AddRow(stdLat...)
	t.AddRow(saved...)
	t.Caption = "Second-chance cut-off; miss latency in hops per miss." + singleRun
	return t
}

// Table3Replicas are the replica counts swept in Table 3.
var Table3Replicas = []int{100, 50, 10, 5, 2, 1}

// Table3ReplicasTable reproduces Table 3: the naive cut-off (popularity
// reset on every update arrival) versus the replica-independent cut-off,
// for varying numbers of replicas per key.
func Table3ReplicasTable(sc Scale) *metrics.Table {
	t := &metrics.Table{Title: fmt.Sprintf("Table 3: naive vs replica-independent cut-off (λ=1, n=%d)", sc.nodes())}
	t.Header = []string{"Replicas",
		"Naive miss cost (misses)", "Repl-indep miss cost (misses)", "Repl-indep total cost"}
	eng := sc.engine()
	naiveF := make([]*Future, len(Table3Replicas))
	fixedF := make([]*Future, len(Table3Replicas))
	for i, r := range Table3Replicas {
		naiveF[i] = eng.submit(append(sc.base(1), cup.WithReplicas(r), cup.WithNaiveCutoff())...)
		fixedF[i] = eng.submit(append(sc.base(1), cup.WithReplicas(r))...)
	}
	for i, r := range Table3Replicas {
		naive := naiveF[i].Result()
		fixed := fixedF[i].Result()
		t.AddRow(
			metrics.I(r),
			fmt.Sprintf("%d (%d)", naive.Counters.MissCost(), naive.Counters.Misses()),
			fmt.Sprintf("%d (%d)", fixed.Counters.MissCost(), fixed.Counters.Misses()),
			metrics.I(fixed.Counters.TotalCost()),
		)
	}
	t.Caption = "Second-chance policy; every replica refresh sent as a separate update." + singleRun
	return t
}

// Capacities is the reduced-capacity sweep of Figures 5 and 6.
var Capacities = []float64{0, 0.25, 0.5, 0.75, 1}

// FigCapacity reproduces Figures 5 (λ=1) and 6 (λ=1000): total cost when
// 20% of nodes run at reduced outgoing capacity c, under the Up-And-Down
// (Recover) and Once-Down-Always-Down schedules, against the
// standard-caching line. The fault scripts are the public
// cup.CapacityFault, expanded over the run's own query window.
func FigCapacity(sc Scale, title string, lambda float64) *metrics.Table {
	t := &metrics.Table{Title: title}
	t.Header = []string{"capacity c", "Up-And-Down total", "Once-Down-Always-Down total", "Standard caching"}

	eng := sc.engine()
	stdF := eng.submit(append(sc.base(lambda), cup.WithStandardCaching())...)
	upF := make([]*Future, len(Capacities))
	downF := make([]*Future, len(Capacities))
	for i, c := range Capacities {
		upF[i] = eng.submit(append(sc.base(lambda),
			cup.WithFaults(cup.CapacityFault{Capacity: c, Recover: true}))...)
		downF[i] = eng.submit(append(sc.base(lambda),
			cup.WithFaults(cup.CapacityFault{Capacity: c}))...)
	}
	std := stdF.Result().Counters.TotalCost()
	for i, c := range Capacities {
		t.AddRow(metrics.F(c),
			metrics.I(upF[i].Result().Counters.TotalCost()),
			metrics.I(downF[i].Result().Counters.TotalCost()),
			metrics.I(std))
	}
	t.Caption = "20% of nodes at reduced capacity; second-chance policy." + singleRun
	return t
}

// Fig5Capacity reproduces Figure 5 (λ = 1 query/s).
func Fig5Capacity(sc Scale) *metrics.Table {
	return FigCapacity(sc, "Figure 5: total cost vs reduced capacity (λ=1)", 1)
}

// Fig6Capacity reproduces Figure 6 (λ = 1000 queries/s, log y).
func Fig6Capacity(sc Scale) *metrics.Table {
	return FigCapacity(sc, "Figure 6: total cost vs reduced capacity (λ=1000)", 1000)
}
