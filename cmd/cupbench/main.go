// Command cupbench regenerates the tables and figures of the CUP paper's
// evaluation section. By default every experiment runs at a reduced scale
// that finishes in seconds; -full uses the paper's exact parameters
// (3000 s of querying, λ up to 1000 queries/s, networks up to 4096 nodes).
// Sweeps run on the parallel experiment engine (-workers caps the pool).
// -json instead benchmarks every registered scenario (traffic generator +
// fault scripts) and writes the machine-readable perf trajectory to
// BENCH_scenarios.json; -parallel benchmarks the engine core (scheduler
// events/sec, allocs/event, Figure-3 sweep wall-time sequential vs
// cost-ordered parallel with its per-cell tail, and a four-network live
// trial sweep) and writes BENCH_core.json.
//
//	cupbench                     # all experiments, reduced scale
//	cupbench -exp table1         # one experiment
//	cupbench -full -exp fig4     # paper-scale run
//	cupbench -list               # list experiment names
//	cupbench -json               # benchmark the scenario catalog
//	cupbench -json -scenario flashcrowd
//	cupbench -parallel           # core benchmark, write BENCH_core.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cup"
	"cup/internal/experiment"
	"cup/internal/metrics"
	"cup/internal/obs"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// scenarioBench is one row of BENCH_scenarios.json: wall-clock cost and
// workload volume of a reduced-scale run of one registered scenario,
// plus a telemetry snapshot of the core protocol series the metrics
// registry folded from the same run's event stream.
type scenarioBench struct {
	Scenario          string  `json:"scenario"`
	Overlay           string  `json:"overlay"`
	Nodes             int     `json:"nodes"`
	Seed              int64   `json:"seed"`
	NsPerOp           int64   `json:"ns_per_op"`
	Queries           uint64  `json:"queries"`
	QueriesPerSec     float64 `json:"queries_per_sec"`
	UpdatesOriginated uint64  `json:"updates_originated"`
	UpdateHops        uint64  `json:"update_hops"`
	TotalCostHops     uint64  `json:"total_cost_hops"`
	// Telemetry holds selected registry series keyed by metric name
	// (histograms report their sample count).
	Telemetry map[string]float64 `json:"telemetry,omitempty"`
}

// telemetrySnapshot collects the core protocol series from a finished
// deployment's metrics registry for the JSON trajectory.
func telemetrySnapshot(d *cup.Deployment) map[string]float64 {
	snap := map[string]float64{}
	for _, name := range []string{
		"cup_cutoffs_total",
		"cup_query_latency_seconds",
		"cup_update_push_depth",
	} {
		if v, ok := d.MetricValue(name); ok {
			snap[name] = v
		}
	}
	// The push counter is labelled by update taxonomy; export the sum.
	var pushed float64
	for _, t := range []string{"first-time", "delete", "refresh", "append"} {
		if v, ok := d.MetricValue("cup_updates_pushed_total",
			cup.MetricLabel{Key: "type", Value: t}); ok {
			pushed += v
		}
	}
	snap["cup_updates_pushed_total"] = pushed
	if v, ok := d.MetricValue("cup_queries_coalesced_total",
		cup.MetricLabel{Key: "source", Value: "local"}); ok {
		snap["cup_queries_coalesced_total{source=local}"] = v
	}
	return snap
}

// benchScenarios runs every named scenario once on the simulated
// transport at reduced scale and writes BENCH_scenarios.json.
func benchScenarios(names []string, ov string, seed int64) error {
	const (
		nodes    = 256
		rate     = 5.0
		duration = 600.0
	)
	rows := make([]scenarioBench, 0, len(names))
	for _, name := range names {
		sc, err := cup.BuildScenario(name)
		if err != nil {
			return err
		}
		opts := []cup.Option{
			cup.WithNodes(nodes),
			cup.WithOverlay(ov),
			cup.WithKeys(4),
			cup.WithZipf(1.1),
			cup.WithQueryRate(rate),
			cup.WithQueryDuration(cup.Seconds(duration)),
			cup.WithSeed(seed),
			cup.WithScenario(sc),
			cup.WithTelemetry(""),
		}
		d, err := cup.New(opts...)
		if err != nil {
			return fmt.Errorf("scenario %q: %v", name, err)
		}
		start := time.Now()
		res, err := d.Run(context.Background())
		elapsed := time.Since(start)
		if err != nil {
			d.Close()
			return fmt.Errorf("scenario %q: %v", name, err)
		}
		c := res.Counters
		rows = append(rows, scenarioBench{
			Scenario:          name,
			Overlay:           res.Params.OverlayKind,
			Nodes:             nodes,
			Seed:              seed,
			NsPerOp:           elapsed.Nanoseconds(),
			Queries:           c.Queries,
			QueriesPerSec:     float64(c.Queries) / elapsed.Seconds(),
			UpdatesOriginated: c.UpdatesOriginated,
			UpdateHops:        c.UpdateHops,
			TotalCostHops:     c.TotalCost(),
			Telemetry:         telemetrySnapshot(d),
		})
		d.Close()
		fmt.Printf("%-14s %12v %8d queries %10.0f q/s %8d updates\n",
			name, elapsed.Round(time.Millisecond), c.Queries,
			float64(c.Queries)/elapsed.Seconds(), c.UpdatesOriginated)
	}
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_scenarios.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_scenarios.json")
	return nil
}

// coreBench is the content of BENCH_core.json: the engine-core numbers
// CI gates on — scheduler hot-path throughput and allocation rate, the
// Figure-3 sweep wall-time under the sequential and the adaptive
// parallel engine with its per-cell tail, and a four-trial live sweep
// (four isolated goroutine networks on the worker pool).
type coreBench struct {
	GoMaxProcs     int     `json:"gomaxprocs"`
	Workers        int     `json:"workers"`
	SchedulerEvts  uint64  `json:"scheduler_events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// The million-node scale demonstration: built bytes per node
	// (overlay + node block) and the reduced Figure-3-style sweep at
	// n = 10^6.
	BytesPerNode        float64 `json:"bytes_per_node"`
	MillionNodes        int     `json:"million_nodes"`
	MillionSweepNs      int64   `json:"million_sweep_ns"`
	MillionEvents       uint64  `json:"million_events"`
	MillionEventsPerSec float64 `json:"million_events_per_sec"`
	Fig3SeqNs           int64   `json:"fig3_sequential_ns"`
	Fig3ParNs           int64   `json:"fig3_parallel_ns"`
	Fig3Speedup         float64 `json:"fig3_speedup"`
	Fig3Identical       bool    `json:"fig3_identical"`
	// Fig3TailNs is the slowest cell of the parallel sweep (the tail
	// cost-ordered dispatch hides); Fig3P95Ns the 95th-percentile cell.
	Fig3TailNs int64 `json:"fig3_tail_ns"`
	Fig3P95Ns  int64 `json:"fig3_p95_ns"`
	// The live multi-trial sweep: trials × parallelism, wall time, and
	// the query messages its merged counters carried.
	LiveTrials    int    `json:"live_trials"`
	LiveParallel  int    `json:"live_parallelism"`
	LiveSweepNs   int64  `json:"live_sweep_ns"`
	LiveQueryMsgs uint64 `json:"live_query_msgs"`
}

// benchSchedulerCore drives the timer-churn hot path — every fired event
// schedules a successor and a decoy and cancels the previous decoy, the
// pattern refresh loops and piggyback windows generate — and reports
// events/sec plus heap allocations per scheduled event.
func benchSchedulerCore(events uint64) (perSec, allocsPerEvent float64) {
	s := sim.NewScheduler()
	noop := func() {}
	var decoy sim.EventID
	var rearm func()
	rearm = func() {
		if s.Executed >= events {
			return
		}
		s.Cancel(decoy)
		decoy = s.After(2, noop)
		s.After(1, rearm)
	}
	s.After(1, rearm)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if err := s.Run(); err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	// Each loop turn schedules two events (successor + decoy); charge
	// allocations to scheduled, not fired, events.
	scheduled := 2 * s.Executed
	return float64(s.Executed) / elapsed.Seconds(),
		float64(m1.Mallocs-m0.Mallocs) / float64(scheduled)
}

// benchLiveSweep times a multi-trial live Run: `trials` isolated
// goroutine networks, `par` at a time on the worker pool, counters
// merged in trial order. A compressed scenario (time scale 20) keeps
// the wall cost a few seconds while still pumping real wall-clock
// traffic through real channels.
func benchLiveSweep(seed int64, ov string, trials, par int) (time.Duration, uint64, error) {
	d, err := cup.New(
		cup.WithLive(),
		cup.WithOverlay(ov),
		cup.WithTrials(trials),
		cup.WithParallelism(par),
		cup.WithNodes(64),
		cup.WithTraffic(cup.PoissonTraffic(0)),
		cup.WithQueryRate(50),
		cup.WithLifetime(cup.Seconds(10)),
		cup.WithQueryWindow(cup.Seconds(10), cup.Seconds(30)),
		cup.WithTimeScale(20),
		cup.WithHopDelay(500*time.Microsecond),
		cup.WithSeed(seed),
	)
	if err != nil {
		return 0, 0, fmt.Errorf("live sweep: %v", err)
	}
	defer d.Close()
	start := time.Now()
	res, err := d.Run(context.Background())
	if err != nil {
		return 0, 0, fmt.Errorf("live sweep: %v", err)
	}
	return time.Since(start), res.Counters.QueryHops, nil
}

// benchCore measures the engine core and writes BENCH_core.json.
func benchCore(seed int64, ov string, workers int, full bool) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const schedEvents = 2 << 20
	perSec, allocs := benchSchedulerCore(schedEvents)
	fmt.Printf("scheduler      %12.0f events/s %8.3f allocs/event (%d events)\n",
		perSec, allocs, schedEvents)

	sc := experiment.Scale{Full: full, Seed: seed, Overlay: ov}
	sc.Parallelism = 1
	seqStart := time.Now()
	seqTable := experiment.Fig3PushLevel(sc)
	seqNs := time.Since(seqStart)
	// The parallel sweep runs on a shared engine so its per-cell wall
	// times — and with them the sweep tail — are observable here. The
	// engine is instrumented through the same registry the deployments
	// use, so the trial-seconds histogram doubles as a wiring check.
	eng := experiment.NewEngine(workers)
	reg := obs.NewRegistry()
	eng.Instrument(reg)
	sc.Parallelism, sc.Eng = workers, eng
	parStart := time.Now()
	parTable := experiment.Fig3PushLevel(sc)
	parNs := time.Since(parStart)
	cellTimes := eng.TrialTimes()
	tailNs := metrics.Percentile(cellTimes, 1)
	p95Ns := metrics.Percentile(cellTimes, 0.95)
	identical := seqTable.Render() == parTable.Render()
	fmt.Printf("fig3 sweep     %12v sequential %10v parallel (×%d workers, %.2fx, identical=%v)\n",
		seqNs.Round(time.Millisecond), parNs.Round(time.Millisecond), workers,
		seqNs.Seconds()/parNs.Seconds(), identical)
	fmt.Printf("fig3 tail      %12v slowest cell %8v p95 (%d cells, cost-ordered dispatch)\n",
		tailNs.Round(time.Millisecond), p95Ns.Round(time.Millisecond), len(cellTimes))
	if trials, ok := reg.Value("cup_experiment_trial_seconds"); ok && trials > 0 {
		var sum float64
		for _, m := range reg.Snapshot() {
			if m.Name == "cup_experiment_trial_seconds" {
				sum = m.Sum
			}
		}
		fmt.Printf("trial hist     %12.0f trials %12.3fs total (registry cup_experiment_trial_seconds)\n",
			trials, sum)
	}
	if !identical {
		return fmt.Errorf("parallel Figure-3 sweep diverged from sequential output")
	}

	liveTrials, livePar := 4, workers
	if livePar > liveTrials {
		livePar = liveTrials
	}
	liveNs, liveMsgs, err := benchLiveSweep(seed, ov, liveTrials, livePar)
	if err != nil {
		return err
	}
	fmt.Printf("live sweep     %12v wall (%d isolated networks, %d at a time, %d query msgs)\n",
		liveNs.Round(time.Millisecond), liveTrials, livePar, liveMsgs)

	// The million-node scale demonstration: per-node footprint of a built
	// deployment, then the reduced Figure-3-style sweep.
	bytesPerNode := experiment.Footprint(experiment.MillionNodes)
	fmt.Printf("dense footprint %11.1f bytes/node (n = %d, chord + nodes)\n",
		bytesPerNode, experiment.MillionNodes)
	million := experiment.MillionRun(experiment.Scale{Seed: seed})
	fmt.Printf("million sweep  %12v wall %12.0f events/s (%d events, %d cells)\n",
		million.Elapsed.Round(time.Millisecond), million.EventsPerSec(),
		million.Events, len(experiment.MillionPushLevels))

	out, err := json.MarshalIndent(coreBench{
		GoMaxProcs:          runtime.GOMAXPROCS(0),
		Workers:             workers,
		SchedulerEvts:       schedEvents,
		EventsPerSec:        perSec,
		AllocsPerEvent:      allocs,
		BytesPerNode:        bytesPerNode,
		MillionNodes:        experiment.MillionNodes,
		MillionSweepNs:      million.Elapsed.Nanoseconds(),
		MillionEvents:       million.Events,
		MillionEventsPerSec: million.EventsPerSec(),
		Fig3SeqNs:           seqNs.Nanoseconds(),
		Fig3ParNs:           parNs.Nanoseconds(),
		Fig3Speedup:         seqNs.Seconds() / parNs.Seconds(),
		Fig3Identical:       identical,
		Fig3TailNs:          tailNs.Nanoseconds(),
		Fig3P95Ns:           p95Ns.Nanoseconds(),
		LiveTrials:          liveTrials,
		LiveParallel:        livePar,
		LiveSweepNs:         liveNs.Nanoseconds(),
		LiveQueryMsgs:       liveMsgs,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_core.json", append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote BENCH_core.json")
	return nil
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment name or 'all'")
		full     = flag.Bool("full", false, "run at the paper's full scale")
		seed     = flag.Int64("seed", 1, "random seed")
		ov       = flag.String("overlay", "", "substrate for all experiments ("+overlay.KindList()+"; default: the paper's CAN)")
		list     = flag.Bool("list", false, "list experiment names and exit")
		jsonOut  = flag.Bool("json", false, "benchmark the scenario catalog and write BENCH_scenarios.json")
		scenario = flag.String("scenario", "", "with -json: benchmark only this registered scenario")
		parallel = flag.Bool("parallel", false, "benchmark the engine core (scheduler + parallel sweep) and write BENCH_core.json")
		workers  = flag.Int("workers", 0, "worker pool size for experiment sweeps (0 = GOMAXPROCS)")
		history  = flag.Bool("history", false, "append the BENCH_core.json row to BENCH_history.jsonl with the git commit")
	)
	flag.Parse()

	if *ov != "" && !overlay.Registered(*ov) {
		fmt.Fprintf(os.Stderr, "cupbench: unknown overlay %q (registered: %s)\n", *ov, overlay.KindList())
		os.Exit(2)
	}

	if *list {
		for _, name := range experiment.Names() {
			fmt.Println(name)
		}
		fmt.Println("million")
		return
	}

	if *parallel {
		if err := benchCore(*seed, *ov, *workers, *full); err != nil {
			fmt.Fprintln(os.Stderr, "cupbench:", err)
			os.Exit(1)
		}
		if *history {
			if err := appendHistory("BENCH_core.json", "BENCH_history.jsonl", time.Now()); err != nil {
				fmt.Fprintln(os.Stderr, "cupbench:", err)
				os.Exit(1)
			}
		}
		return
	}
	if *history {
		// -history without -parallel appends the committed core row as-is
		// (used to seed the history from an existing BENCH_core.json).
		if err := appendHistory("BENCH_core.json", "BENCH_history.jsonl", time.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "cupbench:", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		names := cup.ScenarioNames()
		if *scenario != "" {
			names = []string{*scenario}
		}
		if err := benchScenarios(names, *ov, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "cupbench:", err)
			os.Exit(1)
		}
		return
	}

	sc := experiment.Scale{Full: *full, Seed: *seed, Overlay: *ov, Parallelism: *workers}
	if *exp == "million" {
		// The scale demonstration stands alone: a million-node overlay per
		// cell is too heavy to ride in the default "-exp all" pass.
		msc := experiment.Scale{Seed: *seed, Overlay: *ov}
		start := time.Now()
		fmt.Println(experiment.MillionSweep(msc).Render())
		fmt.Printf("[million took %v]\n\n", time.Since(start).Round(time.Millisecond))
		return
	}
	names := experiment.Names()
	if *exp != "all" {
		if _, ok := experiment.Registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "cupbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}

	for _, name := range names {
		start := time.Now()
		table := experiment.Registry[name](sc)
		fmt.Println(table.Render())
		fmt.Printf("[%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
