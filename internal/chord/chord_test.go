package chord

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cup/internal/overlay"
)

func TestBuildSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 256} {
		r := Build(n)
		if r.Size() != n {
			t.Fatalf("Size = %d, want %d", r.Size(), n)
		}
	}
}

func TestBuildZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Build(0) did not panic")
		}
	}()
	Build(0)
}

func TestSuccessorPredecessorInverse(t *testing.T) {
	r := Build(100)
	for i := 0; i < 100; i++ {
		n := overlay.NodeID(i)
		if r.Predecessor(r.Successor(n)) != n {
			t.Fatalf("pred(succ(%v)) != %v", n, n)
		}
		if r.Successor(r.Predecessor(n)) != n {
			t.Fatalf("succ(pred(%v)) != %v", n, n)
		}
	}
}

func TestSuccessorRingIsSingleCycle(t *testing.T) {
	const n = 64
	r := Build(n)
	seen := make(map[overlay.NodeID]bool)
	cur := overlay.NodeID(0)
	for i := 0; i < n; i++ {
		if seen[cur] {
			t.Fatalf("successor ring revisits %v after %d steps", cur, i)
		}
		seen[cur] = true
		cur = r.Successor(cur)
	}
	if cur != 0 {
		t.Fatalf("ring did not close: ended at %v", cur)
	}
}

func TestOwnerIsSuccessorOfHash(t *testing.T) {
	r := Build(32)
	for i := 0; i < 100; i++ {
		k := overlay.Key(fmt.Sprintf("key-%d", i))
		owner := r.Owner(k)
		h := overlay.HashID(k)
		pred := r.Predecessor(owner)
		// h must lie in (pred, owner] on the circle.
		if !between(r.ID(pred), h, r.ID(owner)) {
			t.Fatalf("key %q: hash %x not in (pred %x, owner %x]", k, h, r.ID(pred), r.ID(owner))
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	for _, n := range []int{1, 2, 8, 128, 1024} {
		r := Build(n)
		for i := 0; i < 100; i++ {
			k := overlay.Key(fmt.Sprintf("route-%d-%d", n, i))
			owner := r.Owner(k)
			for _, start := range []overlay.NodeID{0, overlay.NodeID(n / 2), overlay.NodeID(n - 1)} {
				path := overlay.PathTo(r, start, k, 4*fingerBits)
				if path[len(path)-1] != owner {
					t.Fatalf("n=%d key=%q from %v: ends at %v, owner %v", n, k, start, path[len(path)-1], owner)
				}
			}
		}
	}
}

func TestRoutingIsLogarithmic(t *testing.T) {
	const n = 1024
	r := Build(n)
	total := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		k := overlay.Key(fmt.Sprintf("log-%d", i))
		total += overlay.Distance(r, overlay.NodeID(i%n), k, 4*fingerBits)
	}
	avg := float64(total) / trials
	// Chord expects ~0.5*log2(n) = 5 hops; allow generous slack.
	if avg > 2*math.Log2(n) {
		t.Fatalf("average path length %v too long for n=%d", avg, n)
	}
}

func TestNeighborsExcludeSelfAndAreSorted(t *testing.T) {
	r := Build(64)
	for i := 0; i < 64; i++ {
		n := overlay.NodeID(i)
		nbrs := r.Neighbors(n)
		if len(nbrs) == 0 {
			t.Fatalf("%v has no neighbors", n)
		}
		for j, m := range nbrs {
			if m == n {
				t.Fatalf("%v lists itself as neighbor", n)
			}
			if j > 0 && nbrs[j-1] >= m {
				t.Fatalf("neighbors of %v not sorted: %v", n, nbrs)
			}
		}
	}
}

func TestNeighborCountIsLogarithmic(t *testing.T) {
	r := Build(1024)
	for i := 0; i < 1024; i += 37 {
		nbrs := r.Neighbors(overlay.NodeID(i))
		if len(nbrs) > 4*int(math.Log2(1024))+8 {
			t.Fatalf("node %d has %d neighbors, way above O(log n)", i, len(nbrs))
		}
	}
}

func TestNextHopIsANeighbor(t *testing.T) {
	r := Build(128)
	for i := 0; i < 60; i++ {
		k := overlay.Key(fmt.Sprintf("nbr-%d", i))
		n := overlay.NodeID(i)
		next, ok := r.NextHop(n, k)
		if !ok {
			t.Fatalf("no hop from %v", n)
		}
		if next == n {
			continue // authority
		}
		found := false
		for _, m := range r.Neighbors(n) {
			if m == next {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("NextHop(%v) = %v is not a neighbor", n, next)
		}
	}
}

func TestBetween(t *testing.T) {
	cases := []struct {
		a, x, b uint64
		want    bool
	}{
		{10, 15, 20, true},
		{10, 10, 20, false}, // open at a
		{10, 20, 20, true},  // closed at b
		{10, 25, 20, false},
		{20, 25, 10, true},  // wrapped
		{20, 5, 10, true},   // wrapped
		{20, 15, 10, false}, // wrapped, outside
	}
	for _, c := range cases {
		if got := between(c.a, c.x, c.b); got != c.want {
			t.Errorf("between(%d,%d,%d) = %v, want %v", c.a, c.x, c.b, got, c.want)
		}
	}
}

// Property: routing from any start node for any key terminates at Owner(k)
// within 2*64 hops.
func TestPropertyRouting(t *testing.T) {
	r := Build(257)
	f := func(start uint16, key string) bool {
		n := overlay.NodeID(int(start) % 257)
		k := overlay.Key(key)
		path := overlay.PathTo(r, n, k, 2*fingerBits)
		return path[len(path)-1] == r.Owner(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute1024(b *testing.B) {
	r := Build(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := overlay.Key(fmt.Sprintf("bench-%d", i%512))
		overlay.PathTo(r, overlay.NodeID(i%1024), k, 4*fingerBits)
	}
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkRing *Ring
	sinkNode overlay.NodeID
)

// BenchmarkBuild is one ring at the bench's sweep-128k size.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRing = Build(1 << 17)
	}
}

// BenchmarkNextHop is one routing decision at 2^17 nodes, over 512 keys
// and nodes spread across the ring.
func BenchmarkNextHop(b *testing.B) {
	const n = 1 << 17
	r := Build(n)
	keys := make([]overlay.Key, 512)
	for i := range keys {
		keys[i] = overlay.Key(fmt.Sprintf("bench-%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkNode, _ = r.NextHop(overlay.NodeID(i*7919%n), keys[i%len(keys)])
	}
}

// fingerBits is the width of the identifier circle, and so the number of
// fingers a node has.
const fingerBits = 64

// between reports whether x ∈ (a, b] on the identifier circle.
func between(a, x, b uint64) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // wrapped interval
}

// fingerRing is the oracle: a ring built the way Chord defines it, with
// labels formatted by fmt, ownership by binary search over the sorted
// nodes, and a stored 64-entry finger table per node, scanned from the
// top for the closest preceding finger.
type fingerRing struct {
	ids     []uint64         // ring position per node
	order   []overlay.NodeID // nodes sorted by ring position
	fingers []overlay.NodeID // fingers[i*fingerBits+b] = successor(ids[i] + 2^b)
	succ    []overlay.NodeID
	pred    []overlay.NodeID
}

func buildFingerRing(n int) *fingerRing {
	r := &fingerRing{
		ids:     make([]uint64, n),
		order:   make([]overlay.NodeID, n),
		fingers: make([]overlay.NodeID, n*fingerBits),
		succ:    make([]overlay.NodeID, n),
		pred:    make([]overlay.NodeID, n),
	}
	for i := 0; i < n; i++ {
		r.ids[i] = overlay.HashNodeID(fmt.Sprintf("chord-node-%d", i))
		r.order[i] = overlay.NodeID(i)
	}
	sort.Slice(r.order, func(a, b int) bool { return r.ids[r.order[a]] < r.ids[r.order[b]] })
	for pos, node := range r.order {
		r.succ[node] = r.order[(pos+1)%n]
		r.pred[node] = r.order[(pos-1+n)%n]
	}
	for i := 0; i < n; i++ {
		for b := 0; b < fingerBits; b++ {
			r.fingers[i*fingerBits+b] = r.successorOf(r.ids[i] + uint64(1)<<uint(b))
		}
	}
	return r
}

func (r *fingerRing) successorOf(t uint64) overlay.NodeID {
	i := sort.Search(len(r.order), func(i int) bool { return r.ids[r.order[i]] >= t })
	if i == len(r.order) {
		i = 0
	}
	return r.order[i]
}

func (r *fingerRing) nextHop(n overlay.NodeID, k overlay.Key) overlay.NodeID {
	t := overlay.HashID(k)
	if r.successorOf(t) == n {
		return n
	}
	if between(r.ids[n], t, r.ids[r.succ[n]]) {
		return r.succ[n]
	}
	for b := fingerBits - 1; b >= 0; b-- {
		f := r.fingers[int(n)*fingerBits+b]
		if f != n && between(r.ids[n], r.ids[f], t) && r.ids[f] != t {
			return f
		}
	}
	return r.succ[n]
}

func (r *fingerRing) neighbors(n overlay.NodeID) []overlay.NodeID {
	set := map[overlay.NodeID]bool{r.succ[n]: true, r.pred[n]: true}
	for _, f := range r.fingers[int(n)*fingerBits : (int(n)+1)*fingerBits] {
		set[f] = true
	}
	delete(set, n)
	out := make([]overlay.NodeID, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// The small sizes cover a lone node (every finger is itself), rings where
// most finger targets wrap past zero, and rings where many nodes share a
// successor; 20000 has buckets of the top-bits index holding several
// positions and empty ones.
var oracleSizes = []int{1, 2, 3, 7, 64, 1000, 20000}

// The ring is the oracle's: the same positions, ring order and owners.
// NextHop — which computes the closest preceding finger from one
// distance — picks the same node as the stored table for every node and
// 48 keys.
func TestNextHopMatchesFingerTable(t *testing.T) {
	for _, n := range oracleSizes {
		r, want := Build(n), buildFingerRing(n)
		for i := 0; i < n; i++ {
			node := overlay.NodeID(i)
			if r.ID(node) != want.ids[i] || r.Successor(node) != want.succ[i] || r.Predecessor(node) != want.pred[i] {
				t.Fatalf("n=%d: node %d at %x succ %v pred %v, want %x succ %v pred %v", n, i,
					r.ID(node), r.Successor(node), r.Predecessor(node), want.ids[i], want.succ[i], want.pred[i])
			}
		}
		for j := 0; j < 48; j++ {
			k := overlay.Key(fmt.Sprintf("oracle-%d-%d", n, j))
			if got, w := r.Owner(k), want.successorOf(overlay.HashID(k)); got != w {
				t.Fatalf("n=%d key %q: Owner = %v, want %v", n, k, got, w)
			}
			for i := 0; i < n; i++ {
				node := overlay.NodeID(i)
				got, ok := r.NextHop(node, k)
				if w := want.nextHop(node, k); !ok || got != w {
					t.Fatalf("n=%d key %q: NextHop(%v) = %v, %v; finger table says %v", n, k, node, got, ok, w)
				}
			}
		}
	}
}

// The indexed successorOf agrees with a binary search over the sorted
// ring at both ends of the circle, at every node's position and either
// side of it, and at random identifiers.
func TestSuccessorOfMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range oracleSizes {
		r, want := Build(n), buildFingerRing(n)
		targets := []uint64{0, math.MaxUint64}
		for _, id := range want.ids {
			targets = append(targets, id, id-1, id+1)
		}
		for i := 0; i < 4*n+64; i++ {
			targets = append(targets, rng.Uint64())
		}
		for _, x := range targets {
			if got, w := r.successorOf(x), want.successorOf(x); got != w {
				t.Fatalf("n=%d: successorOf(%x) = %v, want %v", n, x, got, w)
			}
		}
	}
}

// Neighbors, computed per call, is the stored table's set.
func TestNeighborsMatchFingerTable(t *testing.T) {
	for _, n := range oracleSizes[:6] {
		r, want := Build(n), buildFingerRing(n)
		for i := 0; i < n; i++ {
			if got, w := r.Neighbors(overlay.NodeID(i)), want.neighbors(overlay.NodeID(i)); !slices.Equal(got, w) {
				t.Fatalf("n=%d: Neighbors(%d) = %v, want %v", n, i, got, w)
			}
		}
	}
}

// A build is a handful of arrays, whatever n is: no per-node object.
func TestBuildAllocatesAFewArrays(t *testing.T) {
	if allocs := testing.AllocsPerRun(3, func() { Build(4096) }); allocs > 10 {
		t.Fatalf("Build(4096) allocates %v objects, want ≤ 10", allocs)
	}
}
