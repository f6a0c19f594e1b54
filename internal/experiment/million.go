package experiment

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cup"
	"cup/internal/metrics"
)

// MillionNodes is the overlay size of the scale demonstration: three
// orders of magnitude past the paper's n = 2^12 ceiling.
const MillionNodes = 1_000_000

// MillionPushLevels is the reduced Figure-3-style level sweep run at
// n = 10^6. Three cells keep the sweep inside a CI budget while still
// spanning standard caching (level 0), a mid push depth, and a deep one.
var MillionPushLevels = []int{0, 10, 20}

// millionOverlay is the substrate of the scale sweep: sc.Overlay when
// set, else Chord, whose committed BENCH_core.json rows CI gates on. Chord
// and CAN both build in O(n log n) — a million-node CAN takes seconds —
// while Kademlia still builds its buckets quadratically.
func millionOverlay(sc Scale) string {
	if sc.Overlay != "" {
		return sc.Overlay
	}
	return "chord"
}

// millionOpts builds one million-node cell on millionOverlay's substrate.
func millionOpts(sc Scale, level int) []cup.Option {
	opts := []cup.Option{
		cup.WithNodes(MillionNodes),
		cup.WithOverlay(millionOverlay(sc)),
		// Aggregate λ = 100 q/s over the 600 s window: 60k queries is
		// enough routed traffic for a meaningful events/s figure while
		// keeping each cell's event count far below the overlay build
		// cost.
		cup.WithQueryRate(100),
		cup.WithQueryDuration(cup.Seconds(float64(sc.duration()))),
		cup.WithSeed(sc.seed()),
	}
	if level == 0 {
		opts = append(opts, cup.WithStandardCaching())
	} else {
		opts = append(opts, cup.WithPushLevel(level))
	}
	return opts
}

// MillionStats carries the scale sweep's table plus the throughput facts
// cmd/cupbench records in BENCH_core.json.
type MillionStats struct {
	Table *metrics.Table
	// Events and Elapsed cover the whole sweep (every cell's scheduler
	// events and wall time, overlay construction excluded).
	Events  uint64
	Elapsed time.Duration
}

// EventsPerSec is the sweep's sustained scheduler throughput.
func (m MillionStats) EventsPerSec() float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(m.Events) / m.Elapsed.Seconds()
}

// MillionRun runs the Figure-3-style cost-vs-push-level sweep at
// n = 10^6 nodes. Cells run sequentially — each deployment holds a
// million-node overlay and node block, and running them side by side would
// multiply the footprint, not the throughput.
func MillionRun(sc Scale) MillionStats {
	out := MillionStats{Table: &metrics.Table{
		Title:  fmt.Sprintf("Scale: cost vs push level, n = 10^6 (λ=100, %s)", millionOverlay(sc)),
		Header: []string{"push level", "total cost", "miss cost", "queries"},
	}}
	for _, lvl := range MillionPushLevels {
		d, err := cup.New(millionOpts(sc, lvl)...)
		if err != nil {
			panic(fmt.Sprintf("experiment: million cell level %d: %v", lvl, err))
		}
		start := time.Now() //cup:wallclock measurement only: sweep wall time for BENCH_core.json
		res, err := d.Run(context.Background())
		if err != nil {
			d.Close()
			panic(fmt.Sprintf("experiment: million cell level %d: %v", lvl, err))
		}
		out.Elapsed += time.Since(start) //cup:wallclock measurement only: sweep wall time for BENCH_core.json
		out.Events += d.EventsExecuted()
		d.Close()
		out.Table.AddRow(metrics.I(lvl),
			metrics.I(res.Counters.TotalCost()),
			metrics.I(res.Counters.MissCost()),
			metrics.I(res.Counters.Queries))
	}
	out.Table.Caption = "Level 0 = standard caching; reduced level sweep at a million nodes."
	return out
}

// MillionSweep is the experiment-registry wrapper around MillionRun.
func MillionSweep(sc Scale) *metrics.Table {
	return MillionRun(sc).Table
}

// Footprint builds (but does not run) an n-node deployment and reports
// its steady heap cost in bytes per node — overlay, router and the block
// of nodes included (no key state exists before the first query). The measurement brackets the build
// with forced collections, so transient construction garbage does not
// count.
func Footprint(n int) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := cup.New(
		cup.WithNodes(n),
		cup.WithOverlay("chord"),
		cup.WithoutWorkload(),
	)
	if err != nil {
		panic(fmt.Sprintf("experiment: footprint build: %v", err))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	d.Close()
	if bytes < 0 {
		bytes = 0
	}
	return bytes / float64(n)
}
