package kademlia

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"cup/internal/overlay"
	"cup/internal/sim"
)

func TestBuildSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 17, 256} {
		tb := Build(n)
		if tb.Size() != n {
			t.Fatalf("Size = %d, want %d", tb.Size(), n)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
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

func TestBuildKZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildK(4, 0) did not panic")
		}
	}()
	BuildK(4, 0)
}

func TestOwnerIsGlobalClosest(t *testing.T) {
	tb := Build(64)
	for i := 0; i < 100; i++ {
		k := overlay.Key(fmt.Sprintf("key-%d", i))
		h := overlay.HashID(k)
		owner := tb.Owner(k)
		for j := 0; j < 64; j++ {
			m := overlay.NodeID(j)
			if m != owner && tb.ID(m)^h < tb.ID(owner)^h {
				t.Fatalf("key %q: %v is XOR-closer than owner %v", k, m, owner)
			}
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	for _, n := range []int{1, 2, 8, 128, 1024} {
		tb := Build(n)
		for i := 0; i < 100; i++ {
			k := overlay.Key(fmt.Sprintf("route-%d-%d", n, i))
			owner := tb.Owner(k)
			for _, start := range []overlay.NodeID{0, overlay.NodeID(n / 2), overlay.NodeID(n - 1)} {
				path := overlay.PathTo(tb, start, k, 4*idBits)
				if path[len(path)-1] != owner {
					t.Fatalf("n=%d key=%q from %v: ends at %v, owner %v", n, k, start, path[len(path)-1], owner)
				}
			}
		}
	}
}

// TestRoutingDistanceShrinksEveryHop checks the greedy invariant that makes
// reverse-path trees loop-free: each hop strictly reduces XOR distance.
func TestRoutingDistanceShrinksEveryHop(t *testing.T) {
	tb := Build(512)
	for i := 0; i < 80; i++ {
		k := overlay.Key(fmt.Sprintf("shrink-%d", i))
		h := overlay.HashID(k)
		path := overlay.PathTo(tb, overlay.NodeID(i%512), k, 4*idBits)
		for j := 1; j < len(path); j++ {
			if tb.ID(path[j])^h >= tb.ID(path[j-1])^h {
				t.Fatalf("key %q: hop %v→%v does not shrink XOR distance", k, path[j-1], path[j])
			}
		}
	}
}

// TestRoutingIsLogarithmic asserts the ISSUE's acceptance bound: mean path
// length ≤ 2·log₂(n) hops at n ∈ {256, 1024, 4096}.
func TestRoutingIsLogarithmic(t *testing.T) {
	for _, n := range []int{256, 1024, 4096} {
		tb := Build(n)
		total := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			k := overlay.Key(fmt.Sprintf("log-%d-%d", n, i))
			total += overlay.Distance(tb, overlay.NodeID(i%n), k, 4*idBits)
		}
		avg := float64(total) / trials
		if bound := 2 * math.Log2(float64(n)); avg > bound {
			t.Fatalf("n=%d: average path length %.2f exceeds 2·log2(n) = %.1f", n, avg, bound)
		}
	}
}

// TestDeterminism: two builds of the same size agree on every owner and
// every next hop — the property CUP's stable update trees rest on.
func TestDeterminism(t *testing.T) {
	a, b := Build(128), Build(128)
	for i := 0; i < 100; i++ {
		k := overlay.Key(fmt.Sprintf("det-%d", i))
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owners differ across identical builds", k)
		}
		n := overlay.NodeID(i % 128)
		ha, _ := a.NextHop(n, k)
		hb, _ := b.NextHop(n, k)
		if ha != hb {
			t.Fatalf("key %q at %v: next hops differ across identical builds", k, n)
		}
		if h2, _ := a.NextHop(n, k); h2 != ha {
			t.Fatalf("key %q at %v: NextHop not deterministic", k, n)
		}
	}
}

func TestNeighborsExcludeSelfAndAreSorted(t *testing.T) {
	tb := Build(64)
	for i := 0; i < 64; i++ {
		n := overlay.NodeID(i)
		nbrs := tb.Neighbors(n)
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
	tb := Build(1024)
	cap := DefaultBucketSize*int(math.Log2(1024)) + 4*DefaultBucketSize
	for i := 0; i < 1024; i += 37 {
		nbrs := tb.Neighbors(overlay.NodeID(i))
		if len(nbrs) > cap {
			t.Fatalf("node %d has %d neighbors, way above K·log n", i, len(nbrs))
		}
	}
}

func TestNextHopIsANeighbor(t *testing.T) {
	tb := Build(128)
	for i := 0; i < 60; i++ {
		k := overlay.Key(fmt.Sprintf("nbr-%d", i))
		n := overlay.NodeID(i)
		next, ok := tb.NextHop(n, k)
		if !ok {
			t.Fatalf("no hop from %v", n)
		}
		if next == n {
			continue // authority
		}
		if !contains(tb.Neighbors(n), next) {
			t.Fatalf("NextHop(%v) = %v is not a neighbor", n, next)
		}
	}
}

func TestJoinMaintainsInvariants(t *testing.T) {
	tb := Build(8)
	for i := 0; i < 40; i++ {
		id := tb.Join()
		if !tb.Alive(id) {
			t.Fatalf("joined node %v not alive", id)
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("after join %d: %v", i, err)
		}
	}
	if tb.Size() != 48 {
		t.Fatalf("Size = %d, want 48", tb.Size())
	}
}

func TestLeaveMaintainsInvariants(t *testing.T) {
	tb := Build(64)
	r := sim.NewRand(33)
	for i := 0; i < 40; i++ {
		alive := tb.AliveNodes()
		victim := alive[r.Pick(len(alive))]
		pos := tb.ID(victim)
		heir := tb.Leave(victim)
		if tb.Alive(victim) {
			t.Fatalf("left node %v still alive", victim)
		}
		if !tb.Alive(heir) {
			t.Fatalf("heir %v not alive", heir)
		}
		for _, m := range tb.AliveNodes() {
			if m != heir && tb.ID(m)^pos < tb.ID(heir)^pos {
				t.Fatalf("heir %v is not XOR-closest to departed position", heir)
			}
		}
		if err := tb.CheckInvariants(); err != nil {
			t.Fatalf("after leave %d: %v", i, err)
		}
	}
	if tb.Size() != 24 {
		t.Fatalf("Size = %d, want 24", tb.Size())
	}
}

func TestLeaveDeadNodePanics(t *testing.T) {
	tb := Build(4)
	tb.Leave(2)
	defer func() {
		if recover() == nil {
			t.Error("Leave of dead node did not panic")
		}
	}()
	tb.Leave(2)
}

func TestLeaveLastNodePanics(t *testing.T) {
	tb := Build(2)
	tb.Leave(0)
	defer func() {
		if recover() == nil {
			t.Error("Leave of last node did not panic")
		}
	}()
	tb.Leave(1)
}

func TestChurnRoutingStillWorks(t *testing.T) {
	tb := Build(128)
	r := sim.NewRand(78)
	for round := 0; round < 20; round++ {
		if r.Float64() < 0.5 {
			tb.Join()
		} else {
			alive := tb.AliveNodes()
			tb.Leave(alive[r.Pick(len(alive))])
		}
		alive := tb.AliveNodes()
		for i := 0; i < 10; i++ {
			k := overlay.Key(fmt.Sprintf("churn-%d-%d", round, i))
			start := alive[r.Pick(len(alive))]
			path := overlay.PathTo(tb, start, k, 4*idBits)
			if path[len(path)-1] != tb.Owner(k) {
				t.Fatalf("round %d: route to %q failed", round, k)
			}
		}
	}
}

// TestSmallBucketsStillConverge: convergence needs only K ≥ 1 (every
// non-empty range stays represented), at the cost of longer paths.
func TestSmallBucketsStillConverge(t *testing.T) {
	tb := BuildK(256, 1)
	for i := 0; i < 100; i++ {
		k := overlay.Key(fmt.Sprintf("k1-%d", i))
		path := overlay.PathTo(tb, overlay.NodeID(i%256), k, 4*idBits)
		if path[len(path)-1] != tb.Owner(k) {
			t.Fatalf("K=1 route to %q failed", k)
		}
	}
	if err := tb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: routing from any start node for any key terminates at Owner(k)
// within 4·64 hops.
func TestPropertyRouting(t *testing.T) {
	tb := Build(257)
	f := func(start uint16, key string) bool {
		n := overlay.NodeID(int(start) % 257)
		k := overlay.Key(key)
		path := overlay.PathTo(tb, n, k, 4*idBits)
		return path[len(path)-1] == tb.Owner(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute1024(b *testing.B) {
	tb := Build(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := overlay.Key(fmt.Sprintf("bench-%d", i%512))
		overlay.PathTo(tb, overlay.NodeID(i%1024), k, 4*idBits)
	}
}

func BenchmarkBuild1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Build(1024)
	}
}
