package cup

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// smallParams is a fast configuration for integration tests.
func smallParams() Params {
	return Params{
		Nodes:         64,
		QueryRate:     2,
		QueryDuration: 600,
		Seed:          42,
	}
}

func TestSimulationRunsAndConserves(t *testing.T) {
	res := Run(smallParams())
	c := &res.Counters
	if c.Queries == 0 {
		t.Fatal("no queries posted")
	}
	if c.Hits+c.Misses() != c.Queries {
		t.Fatalf("hits %d + misses %d != queries %d", c.Hits, c.Misses(), c.Queries)
	}
	if c.FirstTimeMisses+c.FreshnessMisses != c.Misses() {
		t.Fatalf("miss classification does not add up: %d + %d != %d",
			c.FirstTimeMisses, c.FreshnessMisses, c.Misses())
	}
	if c.TotalCost() != c.MissCost()+c.Overhead() {
		t.Fatal("total cost identity broken")
	}
	if c.MissesServed > c.Misses() {
		t.Fatalf("served %d misses but only %d occurred", c.MissesServed, c.Misses())
	}
}

// The event budget is exact through the driver too: RunContext returns
// ErrEventBudget after firing precisely MaxEvents events (regression for
// the off-by-one that executed MaxEvents+1).
func TestRunContextEventBudgetExact(t *testing.T) {
	s := NewSimulation(smallParams())
	s.Sched.MaxEvents = 100
	_, err := s.RunContext(context.Background())
	if err != sim.ErrEventBudget {
		t.Fatalf("RunContext = %v, want ErrEventBudget", err)
	}
	if s.Sched.Executed != 100 {
		t.Fatalf("Executed = %d, want exactly MaxEvents = 100", s.Sched.Executed)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(smallParams()).Counters
	b := Run(smallParams()).Counters
	if a != b {
		t.Fatalf("identical params diverged:\n%v\n%v", a.String(), b.String())
	}
}

func TestSeedChangesRun(t *testing.T) {
	p := smallParams()
	a := Run(p).Counters
	p.Seed = 43
	b := Run(p).Counters
	if a == b {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestStandardCachingHasZeroOverhead(t *testing.T) {
	p := smallParams()
	p.Config = Standard()
	res := Run(p)
	if res.Counters.Overhead() != 0 {
		t.Fatalf("standard caching overhead = %d, want 0", res.Counters.Overhead())
	}
	if res.Counters.TotalCost() != res.Counters.MissCost() {
		t.Fatal("standard caching total != miss cost")
	}
}

func TestCUPBeatsStandardCachingOnMissCost(t *testing.T) {
	p := smallParams()
	p.Config = Standard()
	std := Run(p)
	p.Config = Defaults()
	cupRes := Run(p)
	if cupRes.Counters.MissCost() >= std.Counters.MissCost() {
		t.Fatalf("CUP miss cost %d not below standard %d",
			cupRes.Counters.MissCost(), std.Counters.MissCost())
	}
}

func TestCUPOverheadIsBounded(t *testing.T) {
	res := Run(smallParams())
	// Sanity: overhead exists but does not dwarf the whole run.
	if res.Counters.Overhead() == 0 {
		t.Fatal("CUP run propagated nothing")
	}
	if res.Counters.Overhead() > 100*res.Counters.MissCost() {
		t.Fatalf("overhead %d wildly exceeds miss cost %d",
			res.Counters.Overhead(), res.Counters.MissCost())
	}
}

func TestChordOverlayWorks(t *testing.T) {
	p := smallParams()
	p.OverlayKind = "chord"
	res := Run(p)
	if res.Counters.Queries == 0 || res.Counters.Hits == 0 {
		t.Fatalf("chord run degenerate: %v", res.Counters.String())
	}
}

func TestUnknownOverlayPanics(t *testing.T) {
	p := smallParams()
	p.OverlayKind = "hypercube"
	defer func() {
		if recover() == nil {
			t.Error("unknown overlay did not panic")
		}
	}()
	NewSimulation(p)
}

func TestMultipleKeysAndZipf(t *testing.T) {
	p := smallParams()
	p.Keys = 8
	p.ZipfSkew = 1.2
	res := Run(p)
	if res.Counters.Queries == 0 {
		t.Fatal("no queries")
	}
}

func TestMultipleReplicas(t *testing.T) {
	p := smallParams()
	p.Replicas = 5
	res := Run(p)
	if res.Counters.UpdatesOriginated == 0 {
		t.Fatal("no updates originated")
	}
	// 5 replicas refresh ~3x as often as the query window is long; there
	// must be strictly more origination than with one replica.
	p1 := smallParams()
	one := Run(p1)
	if res.Counters.UpdatesOriginated <= one.Counters.UpdatesOriginated {
		t.Fatalf("5 replicas originated %d updates, 1 replica %d",
			res.Counters.UpdatesOriginated, one.Counters.UpdatesOriginated)
	}
}

func TestCapacityHookReducesOverhead(t *testing.T) {
	full := Run(smallParams())
	p := smallParams()
	p.Hooks = []Hook{{At: 1, Fn: func(s *Simulation) {
		all := make([]overlay.NodeID, s.Size())
		for i := range all {
			all[i] = overlay.NodeID(i)
		}
		s.SetCapacityFraction(all, 0)
	}}}
	res := Run(p)
	if res.Counters.UpdateHops >= full.Counters.UpdateHops {
		t.Fatalf("zero capacity did not reduce update hops: %d vs %d",
			res.Counters.UpdateHops, full.Counters.UpdateHops)
	}
	// With all capacity gone, CUP degrades toward standard caching but
	// must still answer every query (responses are exempt).
	if res.Counters.MissesServed == 0 {
		t.Fatal("no misses served under zero capacity")
	}
}

func TestRemoveReplicaStopsRefreshes(t *testing.T) {
	p := smallParams()
	p.Hooks = []Hook{{At: 400, Fn: func(s *Simulation) {
		s.RemoveReplica(s.Keys[0], 0)
	}}}
	res := Run(p)
	// After deletion at t=400 no refreshes for the single replica should
	// originate; with one key and one replica the count is bounded by the
	// refreshes before t=400 plus birth and the delete itself.
	if res.Counters.UpdatesOriginated > 4 {
		t.Fatalf("refreshes continued after delete: %d originated",
			res.Counters.UpdatesOriginated)
	}
}

func TestPostQueryAtSpecificNode(t *testing.T) {
	p := smallParams()
	p.QueryRate = 0.0001 // effectively no background queries
	s := NewSimulation(p)
	s.Sched.At(400, func() { s.PostQueryAt(7, s.Keys[0]) })
	res := s.Run()
	if res.Counters.Queries == 0 {
		t.Fatal("posted query not counted")
	}
}

func TestJustifiedFractionGrowsWithQueryRate(t *testing.T) {
	lo := smallParams()
	lo.QueryRate = 0.05
	hi := smallParams()
	hi.QueryRate = 20
	fLo := Run(lo).Counters.JustifiedFraction()
	fHi := Run(hi).Counters.JustifiedFraction()
	if fHi <= fLo {
		t.Fatalf("justified fraction did not grow with rate: %.3f vs %.3f", fLo, fHi)
	}
}

func TestRandomNodeSampleDistinct(t *testing.T) {
	s := NewSimulation(smallParams())
	got := sampleAlive(simSurface{s}, 10)
	seen := map[overlay.NodeID]bool{}
	for _, n := range got {
		if seen[n] {
			t.Fatalf("duplicate node %v in sample", n)
		}
		seen[n] = true
	}
	if len(got) != 10 {
		t.Fatalf("sampled %d nodes, want 10", len(got))
	}
}

// A capacity fault after §2.9 churn samples the nodes still there, on
// the simulator as on the live network: no departed ID comes back.
func TestRandomNodeSampleSkipsDeparted(t *testing.T) {
	s := NewSimulation(churnParams())
	surf := simSurface{s}
	owners := map[overlay.NodeID]bool{}
	for _, k := range s.Keys {
		owners[s.Ov.Owner(k)] = true
	}
	left := 0
	for id := overlay.NodeID(0); left < s.Size()/2; id++ {
		if !owners[id] {
			leave(t, s, id)
			left++
		}
	}
	got := sampleAlive(surf, surf.Size())
	for _, id := range got {
		if !s.NodeAlive(id) {
			t.Fatalf("departed node %v sampled", id)
		}
	}
	if want := surf.Size() - left; len(got) != want {
		t.Fatalf("sampled %d nodes, want all %d alive", len(got), want)
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Nodes != 1024 || p.Lifetime != 300 || p.QueryDuration != 3000 {
		t.Fatalf("defaults wrong: %+v", p)
	}
	if p.Config.Policy == nil {
		t.Fatal("default policy missing")
	}
}

// paperParams is the paper's headline configuration (n = 2^10, λ = 5)
// shrunk to a 600 s query window so the three-overlay sweeps stay fast.
func paperParams(kind string) Params {
	return Params{
		Nodes:         1024,
		OverlayKind:   kind,
		QueryRate:     5,
		QueryDuration: 600,
		Replicas:      4,
		Seed:          3,
	}
}

// The single node-state representation reproduces, bit for bit, the
// Counters both representations it replaced agreed on: these were recorded
// at commit 47b260a — the last with a map-backed Node beside the dense
// arena — from the map-backed and the dense run of paperParams alike.
// Same event schedule, same RNG draws, same float accumulation order.
func TestDenseStateBitIdentical(t *testing.T) {
	want := map[string]metrics.Counters{
		"can": {Queries: 0xb8b, Hits: 0x997, FirstTimeMisses: 0x1f1, FreshnessMisses: 0x3, Coalesced: 0x5,
			QueryHops: 0x3f2, ResponseHops: 0x3f2, UpdateHops: 0x2aad, ClearBitHops: 0x94,
			UpdatesOriginated: 0x10, JustifiedUpdates: 0x5bd, UnjustifiedUpdates: 0x20c4,
			MissLatencyTotal: math.Float64frombits(0x4069f1ea26aa3e5e), MissesServed: 0x1f4},
		"chord": {Queries: 0xb8b, Hits: 0x889, FirstTimeMisses: 0x300, FreshnessMisses: 0x2, Coalesced: 0x4,
			QueryHops: 0x3dd, ResponseHops: 0x3dd, UpdateHops: 0x278a, ClearBitHops: 0xb1,
			UpdatesOriginated: 0x10, JustifiedUpdates: 0x578, UnjustifiedUpdates: 0x1dc0,
			MissLatencyTotal: math.Float64frombits(0x4068dd2e0ce8c8fe), MissesServed: 0x302},
		"kademlia": {Queries: 0xb8b, Hits: 0x80d, FirstTimeMisses: 0x37a, FreshnessMisses: 0x4, Coalesced: 0x4,
			QueryHops: 0x3d1, ResponseHops: 0x3d1, UpdateHops: 0x25be, ClearBitHops: 0xd7,
			UpdatesOriginated: 0x10, JustifiedUpdates: 0x527, UnjustifiedUpdates: 0x1c18,
			MissLatencyTotal: math.Float64frombits(0x406883237e6beec8), MissesServed: 0x37e},
	}
	for _, kind := range overlay.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			pinned, ok := want[kind]
			if !ok {
				t.Fatalf("no Counters recorded for overlay %q", kind)
			}
			if got := Run(paperParams(kind)).Counters; got != pinned {
				t.Errorf("node state drifted from the recorded run:\n recorded %+v\n got      %+v", pinned, got)
			}
		})
	}
}

// Regression for the issuedAt approximation: under standard caching,
// several local queries for one key can be in flight at the same node at
// once. Each response must report the latency of *its own* query — the
// old code kept a single per-key issue time that the newest query
// overwrote, shortening the first query's reported latency by the
// stagger.
func TestStandardCachingOverlappingQueryLatencies(t *testing.T) {
	p := Params{
		Nodes:      64,
		NoWorkload: true,
		Seed:       11,
	}
	p.Config = Standard()
	s := NewSimulation(p)

	var lats []sim.Duration
	obs := ObserverFunc(func(e Event) {
		if e.Kind == EvQueryAnswered && e.Peer == LocalClient {
			lats = append(lats, e.Latency)
		}
	})
	s.SetObserver(obs)

	k := overlay.Key("golden")
	s.PublishReplica(k, 0, "203.0.113.7", s.P.Lifetime, Append)
	// A querier that is not the authority, so answers take ≥ 1 hop each
	// way.
	nid := s.Ov.Owner(k) + 1
	if int(nid) >= p.Nodes {
		nid = 0
	}
	const stagger = sim.Duration(0.05)
	s.Sched.At(100, func() { s.PostQueryAt(nid, k) })
	s.Sched.At(sim.Time(100).Add(stagger), func() { s.PostQueryAt(nid, k) })
	if err := s.Settle(t.Context()); err != nil {
		t.Fatal(err)
	}

	if len(lats) != 2 {
		t.Fatalf("got %d answered queries, want 2 (latencies %v)", len(lats), lats)
	}
	// Both queries travel the same path with the same hop delay, so both
	// true latencies are identical; the staggered second query must not
	// steal the first one's clock.
	if lats[0] <= 0 || lats[0] != lats[1] {
		t.Fatalf("overlapping query latencies %v and %v, want equal positive round trips",
			lats[0], lats[1])
	}
}

// A built run is its arrays — the ring's, the node block — and a fixed set
// of run structures, however many nodes it has: no object per node, and
// none per node's worth of nodes. The collector runs only between counts,
// since a cycle, which the larger build starts more often, allocates
// objects of its own; and each size's count is its least of five, since
// another goroutine's allocation (the race detector's, say) lands in
// whichever count it falls in.
func TestNewAllocatesNoPerNodeObject(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		p := Params{Nodes: n, OverlayKind: "chord", NoWorkload: true, Seed: 1}
		least := math.Inf(1)
		for range 5 {
			runtime.GC()
			least = min(least, testing.AllocsPerRun(1, func() { NewSimulation(p) }))
		}
		return least
	}
	if small, large := allocs(4096), allocs(65536); small != large {
		t.Fatalf("NewSimulation allocates %v objects at n = 4096 and %v at n = 65536, want the same", small, large)
	}
}

// BenchmarkNewSimulation is construction's layer row: one Chord run of
// the bench's sweep-128k size, built without a workload — the ring, the
// router and the node block — from a collected heap, as the bench builds
// each cell.
func BenchmarkNewSimulation(b *testing.B) {
	p := Params{Nodes: 1 << 17, OverlayKind: "chord", NoWorkload: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		sinkSim = NewSimulation(p)
	}
}

// sinkSim keeps BenchmarkNewSimulation's result live.
var sinkSim *Simulation
