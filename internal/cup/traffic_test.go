package cup

import (
	"math"
	"slices"
	"testing"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// testEnv builds a standalone TrafficEnv over nKeys keys with a seeded
// RNG and trivially uniform pick helpers.
func testEnv(seed int64, nKeys int, rate, start, duration float64) TrafficEnv {
	rng := sim.NewRand(seed)
	keys := make([]overlay.Key, nKeys)
	for i := range keys {
		keys[i] = overlay.Key(string(rune('a' + i)))
	}
	return TrafficEnv{
		Rand:     rng.Rand,
		Nodes:    32,
		Keys:     keys,
		PickNode: func() overlay.NodeID { return overlay.NodeID(rng.Intn(32)) },
		PickKey:  func() overlay.Key { return keys[rng.Intn(len(keys))] },
		Rate:     rate,
		Start:    start,
		Duration: duration,
	}
}

// drain pulls a stream to exhaustion (bounded against runaways).
func drain(t *testing.T, st TrafficStream) []QueryEvent {
	t.Helper()
	var out []QueryEvent
	for i := 0; i < 1_000_000; i++ {
		ev, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
	t.Fatal("stream never terminated")
	return nil
}

// monotone asserts events never go backwards in time and stay in the
// window.
func monotone(t *testing.T, events []QueryEvent, start, end float64) {
	t.Helper()
	prev := 0.0
	for i, ev := range events {
		if ev.At < prev {
			t.Fatalf("event %d at %g before predecessor %g", i, ev.At, prev)
		}
		if ev.At < start || ev.At > end {
			t.Fatalf("event %d at %g outside window [%g, %g]", i, ev.At, start, end)
		}
		prev = ev.At
	}
}

func TestPoissonTrafficWindowAndVolume(t *testing.T) {
	events := drain(t, PoissonTraffic(10).Stream(testEnv(1, 1, 10, 100, 500)))
	monotone(t, events, 100, 600)
	// λ=10 over 500 s → ~5000 arrivals; 10% tolerance.
	if len(events) < 4500 || len(events) > 5500 {
		t.Fatalf("arrivals = %d, want ≈5000", len(events))
	}
}

func TestPoissonTrafficDeterministic(t *testing.T) {
	a := drain(t, PoissonTraffic(5).Stream(testEnv(7, 2, 5, 0, 200)))
	b := drain(t, PoissonTraffic(5).Stream(testEnv(7, 2, 5, 0, 200)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoissonTrafficZeroRateIsEmpty(t *testing.T) {
	env := testEnv(1, 1, 0, 0, 100) // env rate 0, explicit rate 0
	if events := drain(t, PoissonTraffic(0).Stream(env)); len(events) != 0 {
		t.Fatalf("zero-rate stream emitted %d events", len(events))
	}
}

func TestFlashCrowdSurgesHotKey(t *testing.T) {
	fc := FlashCrowd{BaseRate: 1, At: 200, SurgeRate: 200, Queries: 500}
	events := drain(t, fc.Stream(testEnv(3, 3, 1, 100, 500)))
	monotone(t, events, 100, 600)
	hot := 0
	for _, ev := range events {
		if ev.Key == "a" { // first workload key
			hot++
		}
	}
	if hot < 500 {
		t.Fatalf("hot-key events = %d, want ≥ 500 (the surge)", hot)
	}
	// Background (λ=1 over 500 s ≈ 500) plus the surge.
	if len(events) < 900 {
		t.Fatalf("total events = %d, want surge + background", len(events))
	}
}

func TestFlashCrowdSurgeTruncatedAtWindowEnd(t *testing.T) {
	// A surge starting near the window end must drop its tail, not spill
	// past the window.
	fc := FlashCrowd{BaseRate: 0.01, At: 590, SurgeRate: 1, Queries: 100}
	events := drain(t, fc.Stream(testEnv(3, 1, 0.01, 100, 500)))
	monotone(t, events, 100, 600)
}

func TestDiurnalWaveModulatesRate(t *testing.T) {
	// One full wave across the window: the first half (rising sine) must
	// carry more arrivals than the second (falling below mean).
	w := DiurnalWave{Mean: 10, Amplitude: 0.9, Period: 1000}
	events := drain(t, w.Stream(testEnv(5, 1, 10, 0, 1000)))
	monotone(t, events, 0, 1000)
	first, second := 0, 0
	for _, ev := range events {
		if ev.At < 500 {
			first++
		} else {
			second++
		}
	}
	if first <= second {
		t.Fatalf("no diurnal modulation: first half %d, second half %d", first, second)
	}
	// Total volume still ≈ mean·duration.
	if total := first + second; total < 8500 || total > 11500 {
		t.Fatalf("total = %d, want ≈10000", total)
	}
}

func TestZipfDriftRotatesPopularity(t *testing.T) {
	z := ZipfDrift{Rate: 50, Skew: 2.0, Shift: 500}
	events := drain(t, z.Stream(testEnv(11, 4, 50, 0, 1000)))
	monotone(t, events, 0, 1000)
	top := func(lo, hi float64) overlay.Key {
		counts := map[overlay.Key]int{}
		for _, ev := range events {
			if ev.At >= lo && ev.At < hi {
				counts[ev.Key]++
			}
		}
		var best overlay.Key
		for k, c := range counts {
			if best == "" || c > counts[best] {
				best = k
			}
		}
		return best
	}
	if a, b := top(0, 500), top(500, 1000); a == b {
		t.Fatalf("popularity never drifted: top key %q in both halves", a)
	}
}

func TestClosedLoopVolumeTracksPopulation(t *testing.T) {
	// 8 clients with 2 s mean think time over 400 s ≈ 1600 queries.
	cl := ClosedLoop{Clients: 8, Think: 2}
	events := drain(t, cl.Stream(testEnv(13, 1, 1, 0, 400)))
	monotone(t, events, 0, 400)
	if len(events) < 1300 || len(events) > 1900 {
		t.Fatalf("events = %d, want ≈1600", len(events))
	}
}

func TestCapacityFaultScheduleWindows(t *testing.T) {
	f := CapacityFault{Capacity: 0.5, Recover: true}
	events := f.Schedule(300, 3000)
	if len(events) != 6 {
		t.Fatalf("events = %d, want 6", len(events))
	}
	for i := 0; i+1 < len(events); i++ {
		if events[i].At > events[i+1].At {
			t.Fatalf("schedule not ordered at %d", i)
		}
	}
	once := CapacityFault{Capacity: 0.5}
	if got := once.Schedule(300, 3000); len(got) != 1 || got[0].At != 600 {
		t.Fatalf("once-down schedule = %+v", got)
	}
}

func TestFaultsApplyThroughSimulation(t *testing.T) {
	p := Params{Nodes: 64, QueryRate: 2, QueryDuration: 600, Seed: 5,
		Faults: []Fault{CapacityFault{Fraction: 0.25, Capacity: 0.5}}}
	s := NewSimulation(p)
	s.Run()
	reduced := 0
	for _, n := range s.Nodes {
		if n.Capacity() >= 0 {
			reduced++
		}
	}
	if reduced != 16 {
		t.Fatalf("reduced nodes = %d, want 16 (25%% of 64)", reduced)
	}
}

func TestNodeChurnFaultChangesMembership(t *testing.T) {
	p := Params{Nodes: 32, QueryRate: 1, QueryDuration: 600, Seed: 5,
		Faults: []Fault{NodeChurn{At: 350, Period: 50, Rounds: 6}}}
	joined, left := 0, 0
	p.Observer = ObserverFunc(func(e Event) {
		switch e.Kind {
		case EvNodeJoined:
			joined++
		case EvNodeLeft:
			left++
		}
	})
	NewSimulation(p).Run()
	if joined != 3 || left != 3 {
		t.Fatalf("membership events: %d joins, %d leaves; want 3/3", joined, left)
	}
}

func TestReplicaChurnFaultOriginatesUpdates(t *testing.T) {
	base := Params{Nodes: 32, QueryRate: 1, QueryDuration: 600, Seed: 5}
	plain := Run(base).Counters.UpdatesOriginated
	churned := base
	churned.Faults = []Fault{ReplicaChurn{At: 350, Period: 50, Rounds: 5, Min: 1}}
	got := Run(churned).Counters.UpdatesOriginated
	if got <= plain {
		t.Fatalf("replica churn originated no extra updates: %d vs %d", got, plain)
	}
}

func TestCustomTrafficDrivesQueries(t *testing.T) {
	// A hand-rolled Traffic pinning every query to node 3 and key-0
	// must flow through PostQueryAt unchanged.
	tr := fixedTraffic{n: 25}
	res := Run(Params{Nodes: 16, QueryRate: 1, QueryDuration: 600, Seed: 2, Traffic: tr})
	if res.Counters.Queries != 25 {
		t.Fatalf("queries = %d, want 25", res.Counters.Queries)
	}
}

type fixedTraffic struct{ n int }

func (f fixedTraffic) Stream(env TrafficEnv) TrafficStream {
	i := 0
	return streamFunc(func() (QueryEvent, bool) {
		if i >= f.n {
			return QueryEvent{}, false
		}
		i++
		return QueryEvent{At: env.Start + float64(i), Node: 3, Key: env.Keys[0]}, true
	})
}

// An arrival a generator places in the past, or at NaN, is posted at the
// instant it was drawn — the previous arrival's — rather than refused by
// the scheduler or queued out of order.
func TestPastAndNaNArrivalsPostNow(t *testing.T) {
	var issued []sim.Time
	p := Params{Nodes: 16, QueryDuration: 600, Seed: 2,
		Traffic: timesTraffic{310, 5, math.NaN(), 320},
		Observer: ObserverFunc(func(e Event) {
			if e.Kind == EvQueryIssued {
				issued = append(issued, e.Time)
			}
		})}
	if res := Run(p); res.Counters.Queries != 4 {
		t.Fatalf("queries = %d, want 4", res.Counters.Queries)
	}
	if want := []sim.Time{310, 310, 310, 320}; !slices.Equal(issued, want) {
		t.Fatalf("queries issued at %v, want %v", issued, want)
	}
}

// timesTraffic issues one query at each of its times, at node 3.
type timesTraffic []float64

func (tt timesTraffic) Stream(env TrafficEnv) TrafficStream {
	i := 0
	return streamFunc(func() (QueryEvent, bool) {
		if i >= len(tt) {
			return QueryEvent{}, false
		}
		i++
		return QueryEvent{At: tt[i-1], Node: 3, Key: env.Keys[0]}, true
	})
}
