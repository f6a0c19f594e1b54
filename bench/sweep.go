package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"time"

	"cup"
	"cup/internal/experiment"
	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/policy"
)

// goldenSeed is the seed whose sweep results are pinned cell by cell in
// golden/; other seeds are checked against the Counters identities.
const goldenSeed = 1

// cell is one simulated run of a sweep.
type cell struct {
	Label  string
	Lambda float64
	Level  int
	opts   []cup.Option
}

// cellResult is a finished cell as the goldens store it.
type cellResult struct {
	Label    string           `json:"label"`
	Lambda   float64          `json:"lambda"`
	Level    int              `json:"level"`
	Counters metrics.Counters `json:"counters"`
}

// golden pins a sweep's results for one seed. The cells do not depend
// on the run length: a longer run makes more passes over the same cells.
type golden struct {
	Seed  int64        `json:"seed"`
	Cells []cellResult `json:"cells"`
}

// sweep1kWindow is the query window of sweep-1k in virtual seconds: two
// replica lifetimes, so every cached entry expires or is refreshed at
// least once. The paper's 3000 s make one pass over the grid 18 s of
// CPU, and a run needs several passes for a median.
const sweep1kWindow = 600

// sweep1kRef and sweepDenseRef are refLoop's nominal times in the sweep
// processes, where it runs right after a forced collection.
const (
	sweep1kRef    = 1200 * time.Microsecond
	sweepDenseRef = 1450 * time.Microsecond
)

// sweep1kCells is the paper's push-level grid (Figures 3 and 4):
// n = 1024 CAN, λ ∈ {1, 10, 100, 1000} × the seven push levels. Level 0
// is standard caching; the others push to every querying node within
// the level regardless of justification (§3.3).
func sweep1kCells(seed int64) []cell {
	var cells []cell
	for _, lambda := range []float64{1, 10, 100, 1000} {
		for _, level := range experiment.PushLevels {
			opts := []cup.Option{
				cup.WithNodes(1024),
				cup.WithOverlay("can"),
				cup.WithQueryRate(lambda),
				cup.WithQueryDuration(cup.Seconds(sweep1kWindow)),
				cup.WithSeed(seed),
			}
			if level == 0 {
				opts = append(opts, cup.WithStandardCaching())
			} else {
				opts = append(opts, cup.WithPolicy(policy.AlwaysKeep()), cup.WithPushLevel(level))
			}
			cells = append(cells, cell{
				Label:  fmt.Sprintf("lambda=%g level=%d", lambda, level),
				Lambda: lambda, Level: level, opts: opts,
			})
		}
	}
	return cells
}

// denseNodes is the size of sweep-128k. cmd/cupbench's scale sweep has
// 10⁶ nodes, whose build alone takes 9 s a cell: one run would hold two
// cells and no median. At 2¹⁷ nodes the state (~60 MB) is still far
// larger than the cores' caches, a cell builds in ~0.6 s and runs in
// ~0.6 s, and a run holds a dozen.
const denseNodes = 1 << 17

// sweepDenseCells is the scale sweep: Chord on dense node state,
// λ = 100, 600 s window, standard caching against push level 10, on the
// single-heap scheduler (the sharded engine diverges from run to run
// above one core, so no number from it can repeat).
func sweepDenseCells(seed int64) []cell {
	var cells []cell
	for _, level := range []int{0, 10} {
		opts := []cup.Option{
			cup.WithNodes(denseNodes),
			cup.WithOverlay("chord"),
			cup.WithDenseState(),
			cup.WithQueryRate(100),
			cup.WithQueryDuration(cup.Seconds(600)),
			cup.WithSeed(seed),
		}
		if level == 0 {
			opts = append(opts, cup.WithStandardCaching())
		} else {
			opts = append(opts, cup.WithPushLevel(level))
		}
		cells = append(cells, cell{
			Label:  fmt.Sprintf("lambda=100 level=%d", level),
			Lambda: 100, Level: level, opts: opts,
		})
	}
	return cells
}

// sweepRun is what a timed region of a sweep measured. The times are
// sums over the cells of each cell's median over the passes: a stall of
// the box lands in one pass of one cell and leaves that cell's median
// alone, where it would sit whole in the sum of any one pass.
type sweepRun struct {
	results []cellResult // identical in every pass, or the run failed
	passes  int
	events  uint64  // of one pass
	newS    float64 // cup.New
	runS    float64 // Deployment.Run, wall
	cpuS    float64 // Deployment.Run, this process's CPU
	rssMB   float64 // smallest of the passes' peak RSS
	// slowdown is the median over the passes of the box's slowdown; the
	// three times above are already divided by each pass's own factor.
	slowdown float64
	perNode  float64 // heap bytes a built deployment holds per node (traced)
	keys     []overlay.Key
}

// sweepPasses builds and runs every cell, one after another, pass after
// pass, until d has gone by; the pass under way is finished. Every pass
// has the same inputs, so its Counters must repeat exactly.
func sweepPasses(ctx context.Context, cells []cell, nodes int, ref, d time.Duration, log *spanLog, out *outcome) (*sweepRun, error) {
	r := &sweepRun{results: make([]cellResult, len(cells))}
	news := make([][]float64, len(cells))
	runs := make([][]float64, len(cells))
	cpus := make([][]float64, len(cells))
	var peaks, slows []float64
	for start := time.Now(); r.passes == 0 || time.Since(start) < d; r.passes++ {
		// The box's speed is sampled after every cell, and the pass's
		// times are divided by the median of its samples.
		speed := boxSpeed{nominal: ref}
		newT, runT, cpuT := make([]float64, len(cells)), make([]float64, len(cells)), make([]float64, len(cells))
		// The peak is taken pass by pass and the smallest is reported: what
		// the sweep needs. Most of a small sweep's resident set is collector
		// slack, which comes in steps: identical passes of sweep-1k peak at
		// 21.5 MB or at 35 MB, one run's passes at 21, 35 and 36.
		resetPeakRSS()
		r.events = 0
		for i, c := range cells {
			req := int64(r.passes*len(cells) + i + 1)
			root := log.begin("sweep.cell", 0, req)
			var before float64
			if log != nil {
				before = collectedHeap()
			}
			s := log.begin("facade.new", log.id(root), req)
			t0 := time.Now()
			dep, err := cup.New(c.opts...)
			newT[i] = time.Since(t0).Seconds()
			log.end(s)
			if err != nil {
				return nil, fmt.Errorf("build %s: %w", c.Label, err)
			}
			// Collect the build's garbage before the run, or whether a
			// collection of it lands inside the run decides the run's time.
			held := collectedHeap()
			if log != nil {
				r.perNode = math.Max(r.perNode, (held-before)/float64(nodes))
			}
			s = log.begin("facade.run", log.id(root), req)
			cpu0 := selfCPU()
			t0 = time.Now()
			res, err := dep.Run(ctx)
			runT[i] = time.Since(t0).Seconds()
			cpuT[i] = (selfCPU() - cpu0).Seconds()
			log.end(s)
			if err != nil {
				dep.Close()
				return nil, fmt.Errorf("run %s: %w", c.Label, err)
			}
			r.events += dep.EventsExecuted()
			r.keys = dep.Keys()
			dep.Close()
			log.end(root)
			// From a collected heap: the loop allocates, and must not be
			// charged for sweeping the deployment just dropped.
			runtime.GC()
			speed.sample()
			got := cellResult{c.Label, c.Lambda, c.Level, res.Counters}
			if r.passes == 0 {
				r.results[i] = got
			} else if diff := diffCells(r.results[i:i+1], []cellResult{got}); diff != "" {
				out.fail("pass %d does not repeat pass 1: %s", r.passes+1, diff)
			}
		}
		out.Attempted += len(cells)
		peaks = append(peaks, selfPeakRSSMB())
		slows = append(slows, speed.slowdown())
		for i := range cells {
			news[i] = append(news[i], newT[i]/speed.factor())
			runs[i] = append(runs[i], runT[i]/speed.factor())
			cpus[i] = append(cpus[i], cpuT[i]/speed.factor())
		}
	}
	r.rssMB = slices.Min(peaks)
	r.slowdown = median(slows)
	for i := range cells {
		r.newS += median(news[i])
		r.runS += median(runs[i])
		r.cpuS += median(cpus[i])
	}
	return r, nil
}

// runSweep measures one sweep workload: untraced for the end-to-end
// metrics and, in a traced run, once more with spans.
func runSweep(ctx context.Context, cfg runConfig, tr *tracer, out *outcome, name string, cells []cell, nodes int, ref time.Duration) (*sweepRun, error) {
	r, err := sweepPasses(ctx, cells, nodes, ref, cfg.region(), nil, out)
	if err != nil {
		return nil, err
	}
	kev := float64(r.events) / 1e3
	out.E2E["setup_s"] = r.newS
	out.E2E["op_us"] = r.runS / kev * 1e6
	out.E2E["op_cpu_us"] = r.cpuS / kev * 1e6
	out.E2E["peak_rss_mb"] = r.rssMB
	out.note("%d passes over %d cells, %d events a pass; one op is 1000 simulated events; times are sums of each cell's median over the passes",
		r.passes, len(cells), r.events)
	out.note("the box ran the reference loop at %.2f of its nominal time (median over the passes), and every pass's times are divided by 1 + %.1f × (its own such figure − 1)", r.slowdown, sensitivity)
	if err := checkSweep(out, cfg, name, r.results); err != nil {
		return nil, err
	}
	sweepCounts(out, r.results, r.events)
	if tr == nil {
		return r, nil
	}

	traced, err := sweepPasses(ctx, cells, nodes, ref, cfg.region(), tr.log(), out)
	if err != nil {
		return nil, err
	}
	if diff := diffCells(r.results, traced.results); diff != "" {
		out.fail("traced run differs from untraced: %s", diff)
	}
	l := out.Layers
	l["trace.overhead_share"] = (traced.runS - r.runS) / r.runS
	l["trace.box_slowdown"] = traced.slowdown
	l["sim.events_per_s"] = float64(r.events) / r.runS
	l["cup.run_ns_per_event"] = r.runS / float64(r.events) * 1e9
	l["cup.bytes_per_node"] = traced.perNode
	l["facade.new_s_per_cell"] = r.newS / float64(len(cells))
	return r, nil
}

func runSweep1k(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error {
	cells := sweep1kCells(cfg.seed)
	r, err := runSweep(ctx, cfg, tr, out, "sweep-1k", cells, 1024, sweep1kRef)
	if err != nil || tr == nil {
		return err
	}
	l := out.Layers
	driveEngine(l, cells, cfg.nproc)
	driveSim(l)
	driveNode(l, r.keys)
	driveCache(l, r.keys)
	for _, kind := range []string{"can", "kademlia"} {
		driveOverlay(l, kind, 1024, cfg.seed, r.keys, kind == "can")
	}
	return nil
}

func runSweepDense(ctx context.Context, cfg runConfig, tr *tracer, out *outcome) error {
	r, err := runSweep(ctx, cfg, tr, out, "sweep-128k", sweepDenseCells(cfg.seed), denseNodes, sweepDenseRef)
	if err != nil || tr == nil {
		return err
	}
	driveOverlay(out.Layers, "chord", denseNodes, cfg.seed, r.keys, true)
	return nil
}

// driveEngine runs the grid once on a shared experiment.Engine with
// min(nproc, 4) workers, the way cmd/cupbench runs a figure, and says
// how well the cells packed onto the workers. The timed passes above
// run on one core, where packing is not a question.
func driveEngine(l map[string]float64, cells []cell, nproc int) {
	workers := min(nproc, 4)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	eng := experiment.NewEngine(workers)
	start := time.Now()
	futs := make([]*experiment.Future, len(cells))
	for i, c := range cells {
		futs[i] = eng.Go(experiment.Trial{Label: c.Label, Opts: c.opts})
	}
	for _, f := range futs {
		if _, err := await(f); err != nil {
			return
		}
	}
	wall := time.Since(start).Seconds()
	var cellSum, tail float64
	for _, d := range eng.TrialTimes() {
		cellSum += d.Seconds()
		tail = math.Max(tail, d.Seconds())
	}
	l["experiment.cell_s_sum"] = cellSum
	l["experiment.tail_cell_s"] = tail
	l["experiment.parallel_efficiency"] = cellSum / (float64(workers) * wall)
}

// await waits for a trial and turns the engine's re-raised worker panic
// into an error, so a failed cell is reported instead of crashing past
// the harness's clean-up.
func await(f *experiment.Future) (res *cup.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("trial failed: %v", p)
		}
	}()
	return f.Result(), nil
}

// collectedHeap forces a collection and returns the live heap in bytes.
func collectedHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// sweepCounts records the exact counts of a sweep: they must repeat
// between a traced and an untraced run, and a change in any of them is
// a behaviour change, not a speed-up. On the single heap every client
// query, every message hop and every originated update is one event,
// which ties the scheduler's count to the protocol's Counters.
func sweepCounts(out *outcome, results []cellResult, executed uint64) {
	var t metrics.Counters
	for i := range results {
		t.Add(&results[i].Counters)
	}
	if derived := t.Queries + t.QueryHops + t.ResponseHops + t.UpdateHops + t.ClearBitHops + t.UpdatesOriginated; executed != derived {
		out.note("events executed %d != %d rebuilt from the Counters", executed, derived)
	}
	l := out.Layers
	l["sim.events"] = float64(executed)
	l["cup.hit_share"] = float64(t.Hits) / float64(t.Queries)
	l["cup.justified_share"] = t.JustifiedFraction()
	l["cup.coalesced"] = float64(t.Coalesced)
	l["cup.query_hops"] = float64(t.QueryHops)
	l["cup.update_hops"] = float64(t.UpdateHops)
}

// checkSweep fails a sweep whose Counters break the identities every
// run must satisfy or, on the golden seed, differ from the golden.
func checkSweep(out *outcome, cfg runConfig, name string, results []cellResult) error {
	path := filepath.Join("golden", fmt.Sprintf("%s.seed%d.json", name, goldenSeed))
	if cfg.updateGolden {
		raw, err := json.MarshalIndent(golden{cfg.seed, results}, "", " ")
		if err != nil {
			return err
		}
		out.note("golden rewritten: bench/%s", path)
		return os.WriteFile(path, append(raw, '\n'), 0o644)
	}
	checkIdentities(out, results)
	if cfg.seed != goldenSeed {
		out.note("seed %d has no golden: checked the Counters identities, and that every pass repeats the first", cfg.seed)
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read golden: %w", err)
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if diff := diffCells(g.Cells, results); diff != "" {
		out.fail("golden mismatch: %s", diff)
	} else {
		out.note("all %d cells match bench/%s bit for bit", len(results), path)
	}
	return nil
}

// diffCells names the first cell and field where got departs from want,
// or returns "". Floats compare by bit pattern.
func diffCells(want, got []cellResult) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d cells, golden has %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Label != got[i].Label {
			return fmt.Sprintf("cell %d is %q, golden has %q", i, got[i].Label, want[i].Label)
		}
		w, g := reflect.ValueOf(want[i].Counters), reflect.ValueOf(got[i].Counters)
		for f := 0; f < w.NumField(); f++ {
			same := w.Field(f).Interface() == g.Field(f).Interface()
			if w.Field(f).Kind() == reflect.Float64 {
				same = math.Float64bits(w.Field(f).Float()) == math.Float64bits(g.Field(f).Float())
			}
			if !same {
				return fmt.Sprintf("cell %q field %s = %v, golden has %v",
					got[i].Label, w.Type().Field(f).Name, g.Field(f).Interface(), w.Field(f).Interface())
			}
		}
	}
	return ""
}

// checkIdentities applies the invariants that hold for every seed.
func checkIdentities(out *outcome, results []cellResult) {
	queries := map[float64]uint64{}
	for _, r := range results {
		c := r.Counters
		switch {
		case c.Queries == 0:
			out.fail("cell %q served no queries", r.Label)
		case c.Hits+c.FirstTimeMisses+c.FreshnessMisses != c.Queries:
			out.fail("cell %q: hits %d + first-time %d + freshness %d != queries %d",
				r.Label, c.Hits, c.FirstTimeMisses, c.FreshnessMisses, c.Queries)
		case c.QueryHops != c.ResponseHops:
			out.fail("cell %q: query hops %d != response hops %d", r.Label, c.QueryHops, c.ResponseHops)
		case r.Level == 0 && c.Overhead() != 0:
			out.fail("cell %q: standard caching spent %d overhead hops", r.Label, c.Overhead())
		}
		// Cells of one λ share the seed's arrival stream.
		if q, ok := queries[r.Lambda]; ok && q != c.Queries {
			out.fail("cell %q: %d queries, another λ=%g cell saw %d", r.Label, c.Queries, r.Lambda, q)
		}
		queries[r.Lambda] = c.Queries
	}
}
