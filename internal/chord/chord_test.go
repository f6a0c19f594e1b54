package chord

import (
	"fmt"
	"math"
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

// The cursor-built finger tables must be exactly the definition: entry b
// of node i is the successor of ids[i] + 2^b, found here the slow way, by
// one binary search per finger. The small sizes cover a lone node (every
// finger is itself), rings where most targets wrap past zero, and rings
// where many nodes share a successor.
func TestFingersMatchSuccessorOf(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 1000, 20000} {
		r := Build(n)
		for i := 0; i < n; i++ {
			for b := 0; b < fingerBits; b++ {
				want := r.successorOf(r.ids[i] + uint64(1)<<uint(b))
				if got := r.finger(overlay.NodeID(i), b); got != want {
					t.Fatalf("n=%d: finger(%d, %d) = %v, want successorOf = %v", n, i, b, got, want)
				}
			}
		}
	}
}
