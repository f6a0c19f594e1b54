package can

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"cup/internal/overlay"
	"cup/internal/sim"
)

func TestZoneSplitHalvesArea(t *testing.T) {
	z := FullZone()
	a, b := z.Split()
	if a.Area()+b.Area() != z.Area() {
		t.Fatalf("split areas %v + %v != %v", a.Area(), b.Area(), z.Area())
	}
	if a.Overlaps(b) {
		t.Fatal("split halves overlap")
	}
	if !a.Abuts(b) {
		t.Fatal("split halves do not abut")
	}
}

func TestZoneSplitLongerDimension(t *testing.T) {
	wide := Zone{0, 0, 1, 0.5}
	a, b := wide.Split()
	if a.Y1 != 0.5 || b.Y1 != 0.5 {
		t.Fatalf("wide zone split along Y: %v %v", a, b)
	}
	tall := Zone{0, 0, 0.5, 1}
	a, b = tall.Split()
	if a.X1 != 0.5 || b.X1 != 0.5 {
		t.Fatalf("tall zone split along X: %v %v", a, b)
	}
}

func TestZoneContainsHalfOpen(t *testing.T) {
	z := Zone{0.25, 0.25, 0.5, 0.5}
	if !z.Contains(overlay.Point{X: 0.25, Y: 0.25}) {
		t.Fatal("lower-left corner should be inside")
	}
	if z.Contains(overlay.Point{X: 0.5, Y: 0.25}) {
		t.Fatal("X1 edge should be outside (half-open)")
	}
	if z.Contains(overlay.Point{X: 0.25, Y: 0.5}) {
		t.Fatal("Y1 edge should be outside (half-open)")
	}
}

func TestZoneDistInsideIsZero(t *testing.T) {
	z := Zone{0.2, 0.2, 0.4, 0.4}
	if d := z.Dist(overlay.Point{X: 0.3, Y: 0.3}); d != 0 {
		t.Fatalf("Dist inside = %v, want 0", d)
	}
}

func TestZoneDistWraparound(t *testing.T) {
	// Zone near the right edge; point near the left edge: torus distance
	// should go through the seam.
	z := Zone{0.9, 0.4, 1.0, 0.6}
	d := z.Dist(overlay.Point{X: 0.05, Y: 0.5})
	if d > 0.051 {
		t.Fatalf("wraparound Dist = %v, want ≈0.05", d)
	}
}

func TestZoneAbutsSeam(t *testing.T) {
	left := Zone{0, 0.4, 0.1, 0.6}
	right := Zone{0.9, 0.4, 1.0, 0.6}
	if !left.Abuts(right) {
		t.Fatal("zones across the torus seam should abut")
	}
}

func TestZoneCornerTouchIsNotNeighbor(t *testing.T) {
	a := Zone{0, 0, 0.5, 0.5}
	b := Zone{0.5, 0.5, 1, 1}
	if a.Abuts(b) {
		t.Fatal("corner-touching zones must not be neighbors")
	}
}

func TestBuildBalancedGeometry(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		net := BuildBalanced(n)
		if net.Size() != n {
			t.Fatalf("Size = %d, want %d", net.Size(), n)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuildBalancedRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BuildBalanced(3) did not panic")
		}
	}()
	BuildBalanced(3)
}

func TestBuildRandomInvariants(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 500} {
		net := Build(n, sim.NewRand(int64(n)))
		if net.Size() != n {
			t.Fatalf("Size = %d, want %d", net.Size(), n)
		}
		if err := net.CheckInvariants(); err != nil {
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
	Build(0, sim.NewRand(1))
}

func TestOwnerIsDeterministic(t *testing.T) {
	net := Build(64, sim.NewRand(9))
	for i := 0; i < 50; i++ {
		k := overlay.Key(fmt.Sprintf("key-%d", i))
		if net.Owner(k) != net.Owner(k) {
			t.Fatal("Owner not deterministic")
		}
	}
}

func TestRoutingReachesOwner(t *testing.T) {
	for _, n := range []int{1, 4, 32, 256, 1024} {
		net := Build(n, sim.NewRand(int64(n)*7))
		for i := 0; i < 100; i++ {
			k := overlay.Key(fmt.Sprintf("key-%d-%d", n, i))
			owner := net.Owner(k)
			for _, start := range []overlay.NodeID{0, overlay.NodeID(n / 2), overlay.NodeID(n - 1)} {
				path := overlay.PathTo(net, start, k, 10*n+64)
				if path[len(path)-1] != owner {
					t.Fatalf("n=%d key=%q: path ends at %v, owner %v", n, k, path[len(path)-1], owner)
				}
			}
		}
	}
}

func TestRoutingPathLengthScales(t *testing.T) {
	// 2-D CAN routes in O(√n); check average path length grows sublinearly.
	avg := func(n int) float64 {
		net := Build(n, sim.NewRand(123))
		r := sim.NewRand(321)
		total := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			k := overlay.Key(fmt.Sprintf("sc-%d", i))
			start := overlay.NodeID(r.Pick(n))
			total += overlay.Distance(net, start, k, 10*n+64)
		}
		return float64(total) / trials
	}
	a256, a1024 := avg(256), avg(1024)
	if a1024 > a256*3 {
		t.Fatalf("path length not O(√n): n=256→%v hops, n=1024→%v hops", a256, a1024)
	}
	if a1024 < a256 {
		t.Fatalf("path length should grow with n: %v vs %v", a256, a1024)
	}
}

func TestNeighborsSorted(t *testing.T) {
	net := Build(128, sim.NewRand(5))
	for _, n := range net.AliveNodes() {
		nbrs := net.Neighbors(n)
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i] <= nbrs[i-1] {
				t.Fatalf("neighbors of %v not sorted: %v", n, nbrs)
			}
		}
	}
}

func TestJoinMaintainsInvariants(t *testing.T) {
	net := Build(8, sim.NewRand(2))
	r := sim.NewRand(22)
	for i := 0; i < 40; i++ {
		id := net.Join(overlay.Point{X: r.Float64(), Y: r.Float64()})
		if !net.Alive(id) {
			t.Fatalf("joined node %v not alive", id)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("after join %d: %v", i, err)
		}
	}
	if net.Size() != 48 {
		t.Fatalf("Size = %d, want 48", net.Size())
	}
}

func TestLeaveMaintainsInvariants(t *testing.T) {
	net := Build(64, sim.NewRand(3))
	r := sim.NewRand(33)
	for i := 0; i < 40; i++ {
		alive := net.AliveNodes()
		victim := alive[r.Pick(len(alive))]
		heir := net.Leave(victim)
		if net.Alive(victim) {
			t.Fatalf("left node %v still alive", victim)
		}
		if !net.Alive(heir) {
			t.Fatalf("heir %v not alive", heir)
		}
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("after leave %d: %v", i, err)
		}
	}
	if net.Size() != 24 {
		t.Fatalf("Size = %d, want 24", net.Size())
	}
}

func TestLeaveDeadNodePanics(t *testing.T) {
	net := Build(4, sim.NewRand(1))
	net.Leave(2)
	defer func() {
		if recover() == nil {
			t.Error("Leave of dead node did not panic")
		}
	}()
	net.Leave(2)
}

func TestChurnRoutingStillWorks(t *testing.T) {
	net := Build(128, sim.NewRand(77))
	r := sim.NewRand(78)
	for round := 0; round < 20; round++ {
		if r.Float64() < 0.5 {
			net.Join(overlay.Point{X: r.Float64(), Y: r.Float64()})
		} else {
			alive := net.AliveNodes()
			net.Leave(alive[r.Pick(len(alive))])
		}
		alive := net.AliveNodes()
		for i := 0; i < 10; i++ {
			k := overlay.Key(fmt.Sprintf("churn-%d-%d", round, i))
			start := alive[r.Pick(len(alive))]
			path := overlay.PathTo(net, start, k, 4096)
			if path[len(path)-1] != net.Owner(k) {
				t.Fatalf("round %d: route to %q failed", round, k)
			}
		}
	}
}

// Property: any random build tiles the space and routes any key from any
// node to the unique owner.
func TestPropertyBuildAndRoute(t *testing.T) {
	f := func(seed int64, nRaw uint8, keyRaw uint16) bool {
		n := int(nRaw%200) + 1
		net := Build(n, sim.NewRand(seed))
		if err := net.CheckInvariants(); err != nil {
			return false
		}
		k := overlay.Key(fmt.Sprintf("p-%d", keyRaw))
		start := overlay.NodeID(int(keyRaw) % n)
		path := overlay.PathTo(net, start, k, 10*n+64)
		return path[len(path)-1] == net.Owner(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRoute1024(b *testing.B) {
	net := Build(1024, sim.NewRand(1))
	keys := make([]overlay.Key, 256)
	for i := range keys {
		keys[i] = overlay.Key(fmt.Sprintf("bench-%d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		overlay.PathTo(net, overlay.NodeID(i%1024), k, 4096)
	}
}

// BenchmarkBuild reports the build cost per node across two orders of
// magnitude: an O(n log n) build holds ns/node nearly flat, a quadratic one
// turns the largest size into minutes.
func BenchmarkBuild(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(n, sim.NewRand(int64(i)))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}

// bruteNeighbors is the oracle for a neighbor set: every alive node tested
// for abutment, which is how the sets were computed before they were
// maintained incrementally. Sorted, alive-only and symmetric by construction.
func bruteNeighbors(c *Network, n overlay.NodeID) []overlay.NodeID {
	var out []overlay.NodeID
	for j := range c.zones {
		if m := overlay.NodeID(j); m != n && c.Alive(n) && c.Alive(m) && c.abuts(n, m) {
			out = append(out, m)
		}
	}
	return out
}

// scanOwner is the oracle for OwnerOfPoint: a linear scan over all zones.
func scanOwner(c *Network, p overlay.Point) overlay.NodeID {
	for i := range c.zones {
		for _, z := range c.zones[i] {
			if z.Contains(p) {
				return overlay.NodeID(i)
			}
		}
	}
	return overlay.NoNode
}

// checkAgainstOracles compares every neighbor set with the brute-force
// rebuild and the tree's owner with the linear scan, on random points and on
// every zone's corners (each lies exactly on a split line or on 0) pulled to
// just inside the far edges (the largest float below a split line or below 1).
func checkAgainstOracles(t *testing.T, c *Network, r *sim.Rand, step string) {
	t.Helper()
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	var pts []overlay.Point
	for i := 0; i < 32; i++ {
		pts = append(pts, overlay.Point{X: r.Float64(), Y: r.Float64()})
	}
	for i := range c.zones {
		n := overlay.NodeID(i)
		if got, want := c.Neighbors(n), bruteNeighbors(c, n); !slices.Equal(got, want) {
			t.Fatalf("%s: neighbors of %v = %v, brute force says %v", step, n, got, want)
		}
		for _, z := range c.Zones(n) {
			x1, y1 := math.Nextafter(z.X1, 0), math.Nextafter(z.Y1, 0)
			pts = append(pts, overlay.Point{X: z.X0, Y: z.Y0}, overlay.Point{X: x1, Y: z.Y0},
				overlay.Point{X: z.X0, Y: y1}, overlay.Point{X: x1, Y: y1})
		}
	}
	for _, p := range pts {
		if got, want := c.OwnerOfPoint(p), scanOwner(c, p); got != want {
			t.Fatalf("%s: owner of %v = %v, linear scan says %v", step, p, got, want)
		}
	}
}

// Property: whatever sequence of joins and leaves a network has been through
// — absorbed zones split again, a population driven down to two nodes and
// grown back — the incrementally maintained sets and the split tree agree
// with the brute-force oracles after every single step.
func TestPropertyIncrementalMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := sim.NewRand(seed)
		c := Build(1+r.Pick(48), sim.NewRand(seed+1000))
		checkAgainstOracles(t, c, r, "after Build")
		mostZones := 0
		step := func(leave bool) {
			what := "JoinRand"
			switch alive := c.AliveNodes(); {
			case leave && len(alive) > 2:
				victim := alive[r.Pick(len(alive))]
				what = fmt.Sprintf("Leave(%v)", victim)
				heir := c.Leave(victim)
				mostZones = max(mostZones, len(c.Zones(heir)))
			case r.Float64() < 0.5:
				c.JoinRand(r)
			default: // on a corner of an existing zone: a point on two split lines
				z := c.Zones(alive[r.Pick(len(alive))])[0]
				p := overlay.Point{X: z.X0, Y: z.Y0}
				what = fmt.Sprintf("Join(%v)", p)
				c.Join(p)
			}
			checkAgainstOracles(t, c, r, fmt.Sprintf("seed %d, %s", seed, what))
		}
		for i := 0; i < 120; i++ {
			step(r.Float64() < 0.5)
		}
		for c.Size() > 2 {
			step(true)
		}
		for i := 0; i < 30; i++ {
			step(r.Float64() < 0.3)
		}
		if mostZones < 3 {
			t.Errorf("seed %d: no heir ever held 3 zones (most: %d); the sequence is too tame", seed, mostZones)
		}
	}
}

func fingerprint(c *Network) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := range c.zones {
		n := overlay.NodeID(i)
		put(uint64(len(c.Zones(n))))
		for _, z := range c.Zones(n) {
			for _, f := range [4]float64{z.X0, z.Y0, z.X1, z.Y1} {
				put(math.Float64bits(f))
			}
		}
		put(uint64(len(c.Neighbors(n))))
		for _, m := range c.Neighbors(n) {
			put(uint64(m))
		}
	}
	return h.Sum64()
}

// The topology is pinned here and not only through the simulator's Counters
// goldens: an FNV-1a fingerprint over every node's zones (in order) and
// sorted neighbor set. The expected values were generated at commit 030da1d,
// where Build ended in an all-pairs abutment rebuild and Join/Leave rebuilt
// each affected node against every other.
func TestTopologyFingerprint(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
		want uint64
	}{
		{8, 1, 0x25a359beccddd392}, {8, 2, 0xf4868f71e6787b50}, {8, 3, 0x5975fde11c2764ba},
		{1024, 1, 0x53725b7f5fff7d12}, {1024, 2, 0x77870d57cdf0f161}, {1024, 3, 0x74d39560485eb03c},
		{4096, 1, 0x1e1955977b444ae6}, {4096, 2, 0x9f35036ce542e54a}, {4096, 3, 0x85283559f925518b},
	} {
		if got := fingerprint(Build(tc.n, sim.NewRand(tc.seed))); got != tc.want {
			t.Errorf("Build(%d, seed %d) fingerprint %#x, want %#x", tc.n, tc.seed, got, tc.want)
		}
	}
	// Build(64), then 300 random joins and leaves.
	for i, want := range []uint64{0xc15b2278f3e69abf, 0xc98ad43c5330fb1f, 0x84c21957e38c6052} {
		seed := int64(i + 1)
		c := Build(64, sim.NewRand(seed))
		r := sim.NewRand(seed + 100)
		for j := 0; j < 300; j++ {
			if alive := c.AliveNodes(); len(alive) > 2 && r.Float64() < 0.5 {
				c.Leave(alive[r.Pick(len(alive))])
			} else {
				c.JoinRand(r)
			}
		}
		if got := fingerprint(c); got != want {
			t.Errorf("churned seed %d fingerprint %#x, want %#x", seed, got, want)
		}
	}
}

// A 2^17-node network — the size of the scale workload — builds and passes
// the full invariant check; both were quadratic and out of a test's reach.
func TestBuildScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and checks a 2^17-node network")
	}
	const n = 1 << 17
	c := Build(n, sim.NewRand(1))
	if c.Size() != n {
		t.Fatalf("Size = %d, want %d", c.Size(), n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// CheckInvariants no longer compares all pairs, so show it still sees each
// kind of damage to the sets, the tree and the zones.
func TestCheckInvariantsCatchesDamage(t *testing.T) {
	fresh := func() *Network { return Build(64, sim.NewRand(4)) }
	for name, damage := range map[string]func(c *Network){
		"missing neighbor": func(c *Network) { c.neighbors[5] = c.neighbors[5][1:] },
		"stale neighbor": func(c *Network) {
			for m := overlay.NodeID(0); ; m++ {
				if m != 5 && !c.abuts(5, m) {
					c.neighbors[5], c.neighbors[m] = insert(c.neighbors[5], m), insert(c.neighbors[m], 5)
					return
				}
			}
		},
		"unsorted set":      func(c *Network) { slices.Reverse(c.neighbors[5]) },
		"mislabelled leaf":  func(c *Network) { c.tree[len(c.tree)-1].v = 0 },
		"zone moved":        func(c *Network) { c.zones[5][0].X1 = math.Nextafter(c.zones[5][0].X1, 0) },
		"departed but kept": func(c *Network) { c.zones[5] = nil },
	} {
		c := fresh()
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("undamaged: %v", err)
		}
		damage(c)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants reports nothing", name)
		}
	}
}
