// Behavioral coverage of the public fault scripts — cup.CapacityFault,
// cup.NodeChurn, cup.ReplicaChurn, and the cup.FlashCrowd surge —
// through cup.New/WithFaults/WithTraffic. Ported from the deleted
// internal/workload shim's tests, which exercised the same scripts
// through the pre-Scenario Hook surface.
package cup_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cup"
)

func faultOpts(extra ...cup.Option) []cup.Option {
	opts := []cup.Option{
		cup.WithNodes(64),
		cup.WithQueryRate(2),
		cup.WithQueryDuration(cup.Seconds(1800)),
		cup.WithSeed(7),
	}
	return append(opts, extra...)
}

// runFaulted builds a simulated deployment, runs its workload, and
// hands back both the result and the deployment (still open) so tests
// can inspect post-run node state.
func runFaulted(t *testing.T, extra ...cup.Option) (*cup.Result, *cup.Deployment) {
	t.Helper()
	d, err := cup.New(faultOpts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, d
}

// reducedNodes counts nodes still running at reduced capacity.
func reducedNodes(t *testing.T, d *cup.Deployment) int {
	t.Helper()
	reduced := 0
	for id := 0; id < d.Size(); id++ {
		if err := d.Inspect(cup.NodeID(id), func(n *cup.Node) {
			if n.Capacity() >= 0 {
				reduced++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	return reduced
}

// Up-And-Down cycles recover: after the run every node is back at full
// capacity (the last recovery event fires before the window ends).
func TestCapacityFaultUpAndDownRecovers(t *testing.T) {
	res, d := runFaulted(t, cup.WithFaults(cup.CapacityFault{Capacity: 0, Recover: true}))
	if res.Counters.Queries == 0 {
		t.Fatal("no queries")
	}
	if n := reducedNodes(t, d); n != 0 {
		t.Fatalf("%d nodes still reduced after Up-And-Down", n)
	}
}

// Once-Down-Always-Down leaves the sampled fraction reduced: 20% of 64
// nodes by default.
func TestCapacityFaultOnceDownStaysDown(t *testing.T) {
	_, d := runFaulted(t, cup.WithFaults(cup.CapacityFault{Capacity: 0.5}))
	if n := reducedNodes(t, d); n != 64/5 {
		t.Fatalf("reduced nodes = %d, want %d", n, 64/5)
	}
}

// The affected-set size honors Fraction, with a one-node floor.
func TestCapacityFaultSampleSize(t *testing.T) {
	count := func(fraction float64) int {
		_, d := runFaulted(t, cup.WithFaults(cup.CapacityFault{Fraction: fraction, Capacity: 0.5}))
		return reducedNodes(t, d)
	}
	if got := count(0.5); got != 32 {
		t.Fatalf("sample = %d, want 32", got)
	}
	if got := count(0.001); got != 1 {
		t.Fatalf("tiny sample = %d, want 1 (floor)", got)
	}
}

// Capacity loss suppresses proactive pushes, so update hops fall
// against an unfaulted run.
func TestReducedCapacityCostsLessOverheadThanFull(t *testing.T) {
	full, _ := runFaulted(t)
	down, _ := runFaulted(t, cup.WithFaults(cup.CapacityFault{Capacity: 0}))
	if down.Counters.UpdateHops >= full.Counters.UpdateHops {
		t.Fatalf("capacity loss did not reduce update hops: %d vs %d",
			down.Counters.UpdateHops, full.Counters.UpdateHops)
	}
}

// oneShot is a fault script with one intervention, do, at start+at.
type oneShot struct {
	name string
	at   float64
	do   func(cup.FaultSurface) error
}

func (f oneShot) Name() string { return f.name }

func (f oneShot) Schedule(start, _ float64) []cup.FaultEvent {
	return []cup.FaultEvent{{At: start + f.at, Do: f.do}}
}

// failingFault is a script whose one intervention the surface refuses.
func failingFault(at float64) oneShot {
	return oneShot{"always-fails", at, func(cup.FaultSurface) error {
		return errors.New("surface refused")
	}}
}

// A fault the simulator cannot honor fails the run rather than being
// skipped: Run returns an error naming the fault and its instant, and
// every later Settle and Lookup on the deployment returns it too.
func TestSimFailingFaultFailsRun(t *testing.T) {
	d, err := cup.New(faultOpts(cup.WithFaults(failingFault(100)))...)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	_, err = d.Run(ctx)
	if err == nil {
		t.Fatal("Run passed although its fault failed")
	}
	for _, frag := range []string{`"always-fails"`, "t=400s", "surface refused"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Run error %q does not mention %s", err, frag)
		}
	}
	if got := d.Settle(ctx); got == nil || got.Error() != err.Error() {
		t.Errorf("Settle after the fault = %v, want %v", got, err)
	}
	at := cup.NodeID(0)
	if d.Authority("probe") == at {
		at = 1
	}
	if _, got := d.LookupAt(ctx, at, "probe"); got == nil || got.Error() != err.Error() {
		t.Errorf("Lookup after the fault = %v, want %v", got, err)
	}
}

// windowOpts is a short scripted run on transport tr, sized for wall
// time: 8 nodes, λ = 0.05, a 100 s window one 10 s lifetime in, replayed
// 100× compressed on the live transports.
func windowOpts(tr cup.Transport, seed int64, faults ...cup.Fault) []cup.Option {
	return []cup.Option{
		cup.WithTransport(tr),
		cup.WithNodes(8),
		cup.WithSeed(seed),
		cup.WithHopDelay(200 * time.Microsecond),
		cup.WithTraffic(cup.PoissonTraffic(0)),
		cup.WithQueryRate(0.05),
		cup.WithLifetime(10 * time.Second),
		cup.WithQueryDuration(100 * time.Second),
		cup.WithTimeScale(100),
		cup.WithFaults(faults...),
	}
}

// A fault due after the last arrival still fires: every transport runs
// the scripted timeline to the last event the simulator fires, not to the
// end of the traffic stream.
func TestLateFaultFiresOnEveryTransport(t *testing.T) {
	for _, tr := range matrixTransports {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", tr, seed), func(t *testing.T) {
				t.Parallel()
				var ran atomic.Bool
				late := oneShot{"late", 99, func(cup.FaultSurface) error {
					ran.Store(true)
					return nil
				}}
				d := newDeployment(t, windowOpts(tr, seed, late)...)
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				defer cancel()
				if _, err := d.Run(ctx); err != nil {
					t.Fatal(err)
				}
				if !ran.Load() {
					t.Fatal("the fault due at start + 99 s never ran")
				}
			})
		}
	}
}

// A failing fault fails Run with one text on every transport, naming the
// fault, its instant and the surface's error.
func TestFailingFaultErrorReadsAlikeOnEveryTransport(t *testing.T) {
	var want string
	for _, tr := range matrixTransports {
		d := newDeployment(t, windowOpts(tr, 1, failingFault(5))...)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		_, err := d.Run(ctx)
		cancel()
		if err == nil {
			t.Fatalf("%v: Run passed although its fault failed", tr)
		}
		for _, frag := range []string{`"always-fails"`, "t=15s", "surface refused"} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%v: Run error %q does not mention %s", tr, err, frag)
			}
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%v: Run error %q, the simulator's %q", tr, err, want)
		}
	}
}

// TestLiveRunFaultsSurfacesUnsupportedChurn is the no-silent-no-op
// regression: a fault script that joins a node on a static overlay
// without declaring RequiresMembership (so New cannot reject it) must
// fail the live run with the unsupported-churn error.
func TestLiveRunFaultsSurfacesUnsupportedChurn(t *testing.T) {
	join := oneShot{"undeclared-join", 5, func(s cup.FaultSurface) error {
		_, err := s.Join()
		return err
	}}
	for _, tr := range []cup.Transport{cup.Live, cup.LiveTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			d := newDeployment(t, append(windowOpts(tr, 1, join), cup.WithOverlay("chord"))...)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if _, err := d.Run(ctx); err == nil || !strings.Contains(err.Error(), "unsupported") {
				t.Fatalf("Run with a join on chord: err = %v, want unsupported-churn error", err)
			}
		})
	}
}

// TestLiveNodeChurnFaultChangesCounters runs the registered churn fault
// end to end on a dynamic overlay and checks membership measurably
// changed: the membership events the observer counted are the network's
// joins and departures.
func TestLiveNodeChurnFaultChangesCounters(t *testing.T) {
	for _, tr := range []cup.Transport{cup.Live, cup.LiveTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			t.Parallel()
			// The probe reads the membership through the fault surface
			// after the sixth churn round, on Run's timeline.
			var slots, alive int
			probe := oneShot{"membership-probe", 10, func(s cup.FaultSurface) error {
				slots = s.Size()
				for id := range slots {
					if s.Alive(cup.NodeID(id)) {
						alive++
					}
				}
				return nil
			}}
			d := newDeployment(t, append(windowOpts(tr, 1, cup.NodeChurn{Rounds: 6, At: 11, Period: 1}, probe),
				cup.WithNodes(12), cup.WithKeys(3))...)
			var joins, leaves atomic.Uint64
			d.Observe(cup.ObserverFunc(func(e cup.Event) {
				switch e.Kind {
				case cup.EvNodeJoined:
					joins.Add(1)
				case cup.EvNodeLeft:
					leaves.Add(1)
				}
			}))
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			if _, err := d.Run(ctx); err != nil {
				t.Fatal(err)
			}
			if joins.Load() == 0 {
				t.Fatal("NodeChurn produced no joins")
			}
			if uint64(slots) != 12+joins.Load() || uint64(alive) != 12+joins.Load()-leaves.Load() {
				t.Fatalf("observer saw %d joins and %d leaves; the network has %d slots, %d alive",
					joins.Load(), leaves.Load(), slots, alive)
			}
		})
	}
}

// The live fault surface applies capacity loss to running peers: a
// Once-Down script over half the overlay leaves exactly ⌊n/2⌋ of them at
// zero capacity, read back through Inspect on each peer's goroutine.
func TestLiveCapacityFaultOnceDown(t *testing.T) {
	const n = 15
	d, err := cup.New(
		cup.WithLive(),
		cup.WithNodes(n),
		cup.WithSeed(5),
		cup.WithHopDelay(200*time.Microsecond),
		cup.WithTraffic(cup.PoissonTraffic(0)),
		cup.WithQueryRate(2),
		// 100× compression: the window is [10 s, 50 s], 0.1–0.5 s of
		// wall time, and the fault fires at 15 s, well inside it.
		cup.WithLifetime(10*time.Second),
		cup.WithQueryDuration(40*time.Second),
		cup.WithTimeScale(100),
		cup.WithFaults(cup.CapacityFault{Fraction: 0.5, Capacity: 0, Warmup: 5}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := d.Run(ctx); err != nil {
		t.Fatal(err)
	}
	down := 0
	for id := 0; id < n; id++ {
		if err := d.Inspect(cup.NodeID(id), func(node *cup.Node) {
			if node.Capacity() == 0 {
				down++
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if down != n/2 {
		t.Fatalf("%d peers at zero capacity, want ⌊%d/2⌋ = %d", down, n, n/2)
	}
}

// The schedule stops cycling at the end of the query window.
func TestCapacityScheduleRespectsQueryWindowEnd(t *testing.T) {
	events := cup.CapacityFault{Capacity: 0.25, Recover: true}.Schedule(300, 900)
	// Window ends at 1200; first down at 600, next would start at 1500.
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if last := events[len(events)-1].At; last != 1200 {
		t.Fatalf("recovery at %v, want 1200", last)
	}
}

// The FlashCrowd surge posts its queries and, on a slow network, the
// burst coalesces into shared upstream queries (§2.5 case 2).
func TestFlashCrowdTrafficPostsAndCoalesces(t *testing.T) {
	res, _ := runFaulted(t,
		cup.WithHopDelay(time.Second), // slow network: the surge outruns responses
		cup.WithTraffic(cup.FlashCrowd{BaseRate: 0.001, At: 500, SurgeRate: 500, Queries: 300}))
	if res.Counters.Queries < 300 {
		t.Fatalf("queries = %d, want ≥ 300", res.Counters.Queries)
	}
	if res.Counters.Coalesced == 0 {
		t.Fatal("flash crowd produced no coalescing")
	}
}

// Replica churn originates a steady stream of Append/Delete updates.
func TestReplicaChurnAddsAndRemoves(t *testing.T) {
	res, _ := runFaulted(t,
		cup.WithFaults(cup.ReplicaChurn{At: 400, Period: 200, Rounds: 5, Min: 1}))
	// Birth + 5 adds + 4 deletes + refreshes: at least 10 originations.
	if res.Counters.UpdatesOriginated < 10 {
		t.Fatalf("originated = %d, want ≥ 10", res.Counters.UpdatesOriginated)
	}
}

// Fault scripts compose with each other and with a traffic generator.
func TestFaultsComposeWithTraffic(t *testing.T) {
	res, _ := runFaulted(t,
		cup.WithTraffic(cup.FlashCrowd{BaseRate: 2, At: 700, SurgeRate: 20, Queries: 50}),
		cup.WithFaults(
			cup.CapacityFault{Capacity: 0.25, Recover: true},
			cup.ReplicaChurn{At: 500, Period: 300, Rounds: 3, Min: 1},
		))
	if res.Counters.Queries == 0 {
		t.Fatal("composed workload ran nothing")
	}
}

// CUP keeps beating standard caching under continuous node churn
// (§2.9), the property the deleted shim pinned through Hooks.
func TestNodeChurnKeepsCUPWinning(t *testing.T) {
	churn := cup.NodeChurn{At: 400, Period: 60, Rounds: 10}
	churned, _ := runFaulted(t, cup.WithFaults(churn))
	if churned.Counters.Queries == 0 {
		t.Fatal("no queries under node churn")
	}
	std, _ := runFaulted(t, cup.WithStandardCaching(), cup.WithFaults(churn))
	if churned.Counters.TotalCost() >= std.Counters.TotalCost() {
		t.Fatalf("CUP under churn (%d) lost to standard (%d)",
			churned.Counters.TotalCost(), std.Counters.TotalCost())
	}
}
