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
// set, else Chord, whose ring builds with one counting sort and stores no
// finger table (about 110 bytes a built node). CAN builds in
// O(n log n) too, but a million-node CAN takes minutes; Kademlia still
// builds its buckets quadratically.
func millionOverlay(sc Scale) string {
	if sc.Overlay != "" {
		return sc.Overlay
	}
	return "chord"
}

// millionOpts builds one n-node cell of the scale sweep on
// millionOverlay's substrate.
func millionOpts(sc Scale, n, level int) []cup.Option {
	opts := []cup.Option{
		cup.WithNodes(n),
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

// MillionSweep runs the Figure-3-style cost-vs-push-level sweep on n
// nodes: cupbench -exp million passes MillionNodes, and tier-1 runs the
// same code at 2^14. Cells run sequentially — each deployment holds an
// n-node overlay and node block, and running them side by side would
// multiply the footprint, not the throughput.
func MillionSweep(sc Scale, n int) *metrics.Table {
	size, many := fmt.Sprint(n), fmt.Sprint(n)
	if n == MillionNodes {
		size, many = "10^6", "a million"
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("Scale: cost vs push level, n = %s (λ=100, %s)", size, millionOverlay(sc)),
		Header: []string{"push level", "total cost", "miss cost", "queries"},
	}
	for _, lvl := range MillionPushLevels {
		res := run(millionOpts(sc, n, lvl)...)
		t.AddRow(metrics.I(lvl),
			metrics.I(res.Counters.TotalCost()),
			metrics.I(res.Counters.MissCost()),
			metrics.I(res.Counters.Queries))
	}
	t.Caption = fmt.Sprintf("Level 0 = standard caching; reduced level sweep at %s nodes.", many)
	return t
}
