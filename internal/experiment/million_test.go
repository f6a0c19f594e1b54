package experiment

import (
	"runtime"
	"testing"

	"cup"
)

// A built (unrun) Chord deployment — overlay, router and the block of
// nodes; no key state exists before the first query — stays under 1 KiB
// a node. The cost is per node and flat in n (364 B at 2^17 and at
// 10^6), so 2^17 stands in for the million-node sweep's footprint. Heap
// bytes, not time: a trip here is a real regression on any machine.
func TestBuiltFootprintUnderOneKiBPerNode(t *testing.T) {
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
	if perNode <= 0 || perNode > 1024 {
		t.Fatalf("built footprint %.1f B/node outside (0, 1024]", perNode)
	}
}
