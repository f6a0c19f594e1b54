package experiment

import (
	"fmt"

	"cup"
	"cup/internal/metrics"
)

// MillionNodes is the overlay size of the scale demonstration: three
// orders of magnitude past the paper's n = 2^12 ceiling.
const MillionNodes = 1_000_000

// MillionPushLevels is the reduced Figure-3-style level sweep run at
// n = 10^6: standard caching (level 0), a mid push depth, and a deep one.
var MillionPushLevels = []int{0, 10, 20}

// millionOverlay is the substrate of the scale sweep: sc.Overlay when
// set, else Chord. Chord and CAN both build in O(n log n) — a
// million-node CAN takes seconds — while Kademlia still builds its
// buckets quadratically.
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
		// Aggregate λ = 100 q/s over a 600 s window: 60k queries is
		// enough routed traffic to exercise the overlay while keeping
		// each cell's event count far below the overlay build cost.
		cup.WithQueryRate(100),
		cup.WithQueryDuration(cup.Seconds(600)),
		cup.WithSeed(sc.seed()),
	}
	if level == 0 {
		opts = append(opts, cup.WithStandardCaching())
	} else {
		opts = append(opts, cup.WithPushLevel(level))
	}
	return opts
}

// MillionSweep runs the Figure-3-style cost-vs-push-level sweep at
// n = 10^6 nodes. Cells run sequentially — each deployment holds a
// million-node overlay and node block, and running them side by side would
// multiply the footprint, not the throughput.
func MillionSweep(sc Scale) *metrics.Table {
	t := &metrics.Table{
		Title:  fmt.Sprintf("Scale: cost vs push level, n = 10^6 (λ=100, %s)", millionOverlay(sc)),
		Header: []string{"push level", "total cost", "miss cost", "queries"},
	}
	for _, lvl := range MillionPushLevels {
		res := run(millionOpts(sc, lvl)...)
		t.AddRow(metrics.I(lvl),
			metrics.I(res.Counters.TotalCost()),
			metrics.I(res.Counters.MissCost()),
			metrics.I(res.Counters.Queries))
	}
	t.Caption = "Level 0 = standard caching; reduced level sweep at a million nodes."
	return t
}
