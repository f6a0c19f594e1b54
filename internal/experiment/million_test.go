package experiment

import (
	"runtime"
	"strconv"
	"testing"

	"cup"
)

// A built (unrun) Chord deployment — overlay, router and the block of
// nodes; no key state exists before the first query — stays under 160 B
// a node. The ring is its sorted identifiers plus an index (about 20 B a
// node, no finger table: a stored one is 256 B a node and trips this).
// The cost is per node and flat in n, so 2^17 stands in for the
// million-node sweep's footprint. Heap bytes, not time: a trip here is a
// real regression on any machine.
func TestBuiltFootprintUnder160BPerNode(t *testing.T) {
	const n = 1 << 17
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d, err := cup.New(cup.WithNodes(n), cup.WithOverlay("chord"), cup.WithoutWorkload())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Two collections, so construction garbage does not count.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
	t.Logf("built footprint: %.1f B/node at n = %d", perNode, n)
	if perNode <= 0 || perNode > 160 {
		t.Fatalf("built footprint %.1f B/node outside (0, 160]", perNode)
	}
}

// The scale sweep's code at a size tier-1 affords: the Figure 3 shape on
// Chord at 2^14 nodes — some interior push level costs less in total than
// standard caching (level 0).
func TestScaleSweepInteriorLevelBeatsStandardCaching(t *testing.T) {
	tab := MillionSweep(Scale{}, 1<<14)
	t.Log("\n" + tab.Render())
	cost := func(row int) int {
		v, err := strconv.Atoi(tab.Rows[row][1])
		if err != nil {
			t.Fatalf("row %d total cost: %v", row, err)
		}
		return v
	}
	if len(tab.Rows) != len(MillionPushLevels) || MillionPushLevels[0] != 0 {
		t.Fatalf("sweep rows %v over levels %v", tab.Rows, MillionPushLevels)
	}
	best := cost(1)
	for row := 2; row < len(tab.Rows); row++ {
		best = min(best, cost(row))
	}
	if best >= cost(0) {
		t.Fatalf("no interior push level beats standard caching:\n%s", tab.Render())
	}
}
