// Sim/live event parity: the same seed, workload, and options must
// produce the same event *sequence shape* — identical query event counts
// and per-kind push/cut-off counts within tolerance — whether the
// deployment runs on the discrete-event scheduler or on goroutines.
// Both transports share one overlay-seed derivation, so the topologies
// are identical; the protocol core emits the events, so any divergence
// here means the transports drifted.
package cup_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cup"
	internal "cup/internal/cup"
	"cup/internal/overlay"
)

// parityWorkload drives one deployment through a fixed interactive
// script: publish two replicas of two keys, a round of lookups from
// seeded-random peers, two refresh rounds (so proactive pushes travel
// the interest trees and cut-offs fire at leaves), and a final lookup
// round. It returns the per-kind event counts after the network settles.
func parityWorkload(t *testing.T, transport cup.Transport, kind string) map[cup.EventKind]int {
	t.Helper()
	d, err := cup.New(
		cup.WithTransport(transport),
		cup.WithOverlay(kind),
		cup.WithNodes(24),
		cup.WithSeed(7),
		cup.WithoutWorkload(),
		cup.WithHopDelay(500*time.Microsecond),
	)
	if err != nil {
		t.Fatalf("New(%v, %s): %v", transport, kind, err)
	}
	defer d.Close()

	var mu sync.Mutex
	counts := make(map[cup.EventKind]int)
	detach := d.Observe(cup.ObserverFunc(func(e cup.Event) {
		mu.Lock()
		counts[e.Kind]++
		mu.Unlock()
	}))
	defer detach()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	keys := []cup.Key{"alpha", "beta"}
	publish := func() {
		for i, k := range keys {
			for r := 0; r < 2; r++ {
				addr := fmt.Sprintf("198.51.100.%d", 10*i+r+1)
				if err := d.Publish(ctx, k, r, addr, time.Hour); err != nil {
					t.Fatalf("publish %q/%d: %v", k, r, err)
				}
			}
		}
	}
	lookups := func(rng *rand.Rand, n int) {
		for i := 0; i < n; i++ {
			at := cup.NodeID(rng.Intn(d.Size()))
			k := keys[i%len(keys)]
			if _, err := d.LookupAt(ctx, at, k); err != nil {
				t.Fatalf("lookup %q at %v: %v", k, at, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	publish()        // births: Append updates, no interest yet
	lookups(rng, 12) // build the interest trees
	publish()        // refresh round 1: pushes travel the trees
	publish()        // refresh round 2: leaves with no queries cut off
	lookups(rng, 6)  // post-refresh lookups hit warm caches

	if err := d.Settle(ctx); err != nil {
		t.Fatalf("settle: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	out := make(map[cup.EventKind]int, len(counts))
	for k, v := range counts {
		out[k] = v
	}
	return out
}

// within reports whether a and b agree up to an absolute slack or a
// relative fraction of the larger count.
func within(a, b, abs int, rel float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d <= abs {
		return true
	}
	m := a
	if b > m {
		m = b
	}
	return float64(d) <= rel*float64(m)
}

func TestSimLiveEventParity(t *testing.T) {
	for _, kind := range overlay.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			simC := parityWorkload(t, cup.Simulated, kind)
			liveC := parityWorkload(t, cup.Live, kind)

			// Client-visible events are exact: every lookup issues one
			// query and receives one answer on either transport.
			for _, k := range []cup.EventKind{cup.EvQueryIssued, cup.EvQueryAnswered} {
				if simC[k] != liveC[k] {
					t.Errorf("%v: sim %d, live %d (must be identical)", k, simC[k], liveC[k])
				}
			}
			if simC[cup.EvQueryIssued] != 18 {
				t.Errorf("query-issued = %d, want 18 (the scripted lookups)", simC[cup.EvQueryIssued])
			}

			// Propagation events race wall-clock delivery on the live
			// transport, so counts carry tolerance — but the refresh
			// rounds must push updates through the trees on both.
			if simC[cup.EvUpdatePushed] == 0 || liveC[cup.EvUpdatePushed] == 0 {
				t.Errorf("no proactive pushes: sim %d, live %d",
					simC[cup.EvUpdatePushed], liveC[cup.EvUpdatePushed])
			}
			for _, k := range []cup.EventKind{cup.EvUpdatePushed, cup.EvCutoffFired} {
				if !within(simC[k], liveC[k], 6, 0.5) {
					t.Errorf("%v: sim %d, live %d (outside tolerance)", k, simC[k], liveC[k])
				}
			}

			// No membership changes in this script.
			if simC[cup.EvNodeJoined]+simC[cup.EvNodeLeft]+liveC[cup.EvNodeJoined]+liveC[cup.EvNodeLeft] != 0 {
				t.Errorf("unexpected membership events: sim %v, live %v", simC, liveC)
			}
		})
	}
}

// goldenPoisson holds the exact counters the pre-Scenario driver (with
// its embedded Poisson loop) produced for Nodes=256, λ=5, 600 s of
// querying, seed 3 — captured before the Traffic refactor. The Scenario
// API inverted the driver's control flow (queries are now externally
// supplied Traffic events), and these anchors hold that inversion to
// bit-identical behavior on every overlay.
//
// Re-captured when overlay.hash64 gained its splitmix64 finalizer: raw
// FNV-1a clustered sequential key names onto near-identical points, so
// fixing key dispersion moved every authority assignment (and with it
// the exact counter values). The invariant the test protects — the
// Params path and the Traffic API agreeing bit-for-bit with one
// recorded run — is unchanged.
var goldenPoisson = map[string]cup.Counters{
	"can": {Queries: 2963, Hits: 2803, FirstTimeMisses: 144, FreshnessMisses: 16,
		Coalesced: 4, QueryHops: 282, ResponseHops: 282, UpdateHops: 803,
		ClearBitHops: 25, UpdatesOriginated: 4, JustifiedUpdates: 382,
		UnjustifiedUpdates: 43, MissLatencyTotal: 58.99842792237388, MissesServed: 160},
	"chord": {Queries: 2963, Hits: 2765, FirstTimeMisses: 192, FreshnessMisses: 6,
		Coalesced: 1, QueryHops: 265, ResponseHops: 265, UpdateHops: 774,
		ClearBitHops: 5, UpdatesOriginated: 4, JustifiedUpdates: 429,
		UnjustifiedUpdates: 47, MissLatencyTotal: 52.83720532011665, MissesServed: 198},
	"kademlia": {Queries: 2963, Hits: 2728, FirstTimeMisses: 232, FreshnessMisses: 3,
		QueryHops: 259, ResponseHops: 259, UpdateHops: 770,
		ClearBitHops: 2, UpdatesOriginated: 4, JustifiedUpdates: 438,
		UnjustifiedUpdates: 48, MissLatencyTotal: 51.67996909795119, MissesServed: 235},
}

// Scenario-API parity: the same seed driven through the public Traffic
// interface (cup.New + WithTraffic(PoissonTraffic)) must reproduce
// bit-identical counters to the internal driver's Params path — and both
// must match the counters the pre-refactor embedded driver loop
// produced.
func TestPoissonTrafficBitIdenticalToDriverPath(t *testing.T) {
	for kind, want := range goldenPoisson {
		kind, want := kind, want
		t.Run(kind, func(t *testing.T) {
			legacy := internal.Run(internal.Params{
				Nodes: 256, OverlayKind: kind, QueryRate: 5, QueryDuration: 600, Seed: 3,
			})
			if legacy.Counters != want {
				t.Errorf("Params path drifted from the pre-Scenario driver:\n got  %+v\n want %+v",
					legacy.Counters, want)
			}

			d, err := cup.New(
				cup.WithTraffic(cup.PoissonTraffic(5)),
				cup.WithNodes(256),
				cup.WithOverlay(kind),
				cup.WithQueryRate(5),
				cup.WithQueryDuration(600*time.Second),
				cup.WithSeed(3),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters != want {
				t.Errorf("Traffic API drifted from the pre-Scenario driver:\n got  %+v\n want %+v",
					res.Counters, want)
			}
		})
	}
}

// The default rate fallback (PoissonTraffic(0) → configured query rate)
// and the nil-Traffic default must land on the same schedule too.
func TestPoissonTrafficRateFallback(t *testing.T) {
	run := func(opts ...cup.Option) cup.Counters {
		base := []cup.Option{
			cup.WithNodes(64),
			cup.WithQueryRate(3),
			cup.WithQueryDuration(300 * time.Second),
			cup.WithSeed(9),
		}
		d, err := cup.New(append(base, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		res, err := d.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters
	}
	implicit := run()
	explicit := run(cup.WithTraffic(cup.PoissonTraffic(3)))
	fallback := run(cup.WithTraffic(cup.PoissonTraffic(0)))
	if implicit != explicit || implicit != fallback {
		t.Fatalf("Poisson paths diverged:\n nil      %+v\n explicit %+v\n fallback %+v",
			implicit, explicit, fallback)
	}
}

// The simulated transport is fully deterministic: the same options must
// reproduce the identical event tally, not just a similar shape.
func TestSimulatedEventStreamDeterministic(t *testing.T) {
	a := parityWorkload(t, cup.Simulated, "can")
	b := parityWorkload(t, cup.Simulated, "can")
	for _, k := range cup.EventKinds {
		if a[k] != b[k] {
			t.Fatalf("%v: %d vs %d across identical simulated runs", k, a[k], b[k])
		}
	}
}
