package experiment

import (
	"runtime"
	"sync"
	"testing"

	"cup"
)

// crossoverCosts are λ = 1 total costs on Chord at 2^17, seed 1.
type crossoverCosts struct {
	std, level5, level10, secondChance uint64
}

// crossover runs the four cells of the crossover test once, on the
// shared pool: Figure 3's all-out push at levels 0 (standard caching), 5
// and 10, and the paper's default second-chance cut-off.
var crossover = sync.OnceValue(func() crossoverCosts {
	sc := Scale{Nodes: 1 << 17, Overlay: "chord"}
	std := pool.submit(pushLevelOpts(sc, 1, 0)...)
	level5 := pool.submit(pushLevelOpts(sc, 1, 5)...)
	level10 := pool.submit(pushLevelOpts(sc, 1, 10)...)
	second := pool.submit(sc.base(1)...)
	total := func(f *Future) uint64 { return f.Result().Counters.TotalCost() }
	return crossoverCosts{total(std), total(level5), total(level10), total(second)}
})

// The best push level falls as the query density λ/n falls. At λ = 1
// on 1024 nodes every level beats standard caching (Chord: 29,400 at
// level 0, 10,586 at level 10; the CAN of testdata/paper/fig3.txt:
// 67,844 and 17,956). On Chord at 2^17 level 5 still does (31,847
// against 56,308), but level 10 pushes to nodes that are not queried
// before the next refresh and costs more (65,410). Second-chance, which
// chooses no level, still beats standard caching at 2^17 (50,895, a
// ratio of 0.90; 0.70 at 2^14) and loses to level 5.
func TestDeepPushLosesToStandardCachingAt2To17(t *testing.T) {
	c := crossover()
	t.Logf("n = 2^17 Chord, λ = 1: level 0 %d, level 5 %d, level 10 %d, second-chance %d (%.2f of level 0)",
		c.std, c.level5, c.level10, c.secondChance, float64(c.secondChance)/float64(c.std))
	if c.level5 >= c.std {
		t.Errorf("level 5 (%d) does not beat standard caching (%d)", c.level5, c.std)
	}
	if c.level10 <= c.std {
		t.Errorf("level 10 (%d) beats standard caching (%d): no crossover by 2^17", c.level10, c.std)
	}
	if c.secondChance >= c.std || c.secondChance <= c.level5 {
		t.Errorf("second-chance (%d) outside (level 5 %d, standard caching %d)", c.secondChance, c.level5, c.std)
	}
}

// A built (unrun) Chord deployment — overlay, router and the block of
// nodes; no key state exists before the first query — stays under 160 B
// a node. The ring is its sorted identifiers plus an index (about 20 B a
// node, no finger table: a stored one is 256 B a node and trips this).
// The cost is per node and flat in n, so 2^17 stands in for Figure 3 at
// n = 10^6. Heap bytes, not time: a trip here is a real regression on
// any machine. It runs after every test that waits on the shared pool,
// so no sweep allocates while it measures. Static runs share their ring
// (overlay.Shared keeps the most recent of each kind), and the crossover
// cells leave this very ring behind: a 2-node Chord run parks the shared
// slot on a ring of next to nothing first, so the measured build is cold
// and its ring counts.
func TestBuiltFootprintUnder160BPerNode(t *testing.T) {
	const n = 1 << 17
	park, err := cup.New(cup.WithNodes(2), cup.WithOverlay("chord"), cup.WithoutWorkload())
	if err != nil {
		t.Fatal(err)
	}
	park.Close()
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
