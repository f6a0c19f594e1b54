// Scenario/transport parity matrix: every catalog scenario must run
// — or fail fast with a descriptive error, never silently no-op — on
// every overlay kind under all three transports (discrete-event
// simulator, goroutine network, TCP network). The matrix is the
// contract the transports owe each other: one scenario catalog, one
// fault surface, three interchangeable substrates.
package cup_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cup"
	"cup/internal/overlay"
)

// membershipFault mirrors the internal marker interface so the test can
// predict, from the public scenario catalog alone, which cells must be
// rejected at construction.
type membershipFault interface {
	RequiresMembership() bool
}

// needsMembership reports whether the scenario carries a fault script
// that splits and merges overlay regions at runtime (§2.9 churn).
func needsMembership(sc cup.Scenario) bool {
	for _, f := range sc.Faults {
		if mf, ok := f.(membershipFault); ok && mf.RequiresMembership() {
			return true
		}
	}
	return false
}

// matrixTransports is every substrate a scenario must replay on.
var matrixTransports = []cup.Transport{cup.Simulated, cup.Live, cup.LiveTCP}

// TestScenarioTransportParityMatrix drives the full registry through
// the matrix. Cells pairing a membership-churn scenario with a static
// overlay must fail at New with a descriptive error — the
// no-silent-no-op contract; every other cell must complete its run and
// report query work. Short mode trims the overlay axis (one dynamic,
// one static kind) but never the scenario or transport axes: transport
// parity is what the matrix exists to protect.
func TestScenarioTransportParityMatrix(t *testing.T) {
	kinds := overlay.Kinds()
	if testing.Short() {
		kinds = []string{"can", "chord"}
	}
	for _, name := range cup.ScenarioNames() {
		name := name
		for _, kind := range kinds {
			kind := kind
			for _, tr := range matrixTransports {
				tr := tr
				t.Run(fmt.Sprintf("%s/%s/%s", name, kind, tr), func(t *testing.T) {
					t.Parallel()
					sc, err := cup.BuildScenario(name)
					if err != nil {
						t.Fatalf("BuildScenario(%q): %v", name, err)
					}
					wantReject := needsMembership(sc) && !cup.ChurnCapable(kind)
					d, err := cup.New(
						cup.WithTransport(tr),
						cup.WithOverlay(kind),
						cup.WithNodes(16),
						cup.WithKeys(2),
						cup.WithSeed(11),
						cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...),
						cup.WithQueryRate(5),
						// The churn scripts' default timelines start 50 s
						// into the window, so 120 s covers their first
						// events (join + leave, add + remove). Capacity's
						// first event comes after its 300 s warm-up, outside
						// the window: these cells replay only its traffic,
						// and TestLiveCapacityFaultOnceDown runs it live.
						cup.WithQueryDuration(120*time.Second),
						cup.WithHopDelay(200*time.Microsecond),
						cup.WithTimeScale(300),
					)
					if wantReject {
						if err == nil {
							d.Close()
							t.Fatalf("New accepted membership churn on static overlay %q; the fault would silently no-op", kind)
						}
						if !strings.Contains(err.Error(), "static") {
							t.Fatalf("rejection error %q does not explain the static-overlay conflict", err)
						}
						return
					}
					if err != nil {
						t.Fatalf("New: %v", err)
					}
					defer d.Close()
					ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
					defer cancel()
					res, err := d.Run(ctx)
					if err != nil {
						t.Fatalf("Run: %v", err)
					}
					// The simulator reports the paper's per-query taxonomy;
					// the live transports fold message counts into the hop
					// fields. Either way, a scenario that ran must have
					// produced query work.
					if tr == cup.Simulated {
						if res.Counters.Queries == 0 {
							t.Fatal("simulated run reported zero queries")
						}
					} else if res.Counters.QueryHops == 0 {
						t.Fatal("live run reported zero query messages")
					}
				})
			}
		}
	}
}

// TestLiveChurnScenarioChangesMembershipCounters is the tentpole
// acceptance check at the façade level: the registered churn scenario
// on a live deployment must actually join and retire peers — visible
// as membership events on the bus — not just replay traffic around an
// inert fault script.
func TestLiveChurnScenarioChangesMembershipCounters(t *testing.T) {
	sc, err := cup.BuildScenario("churn")
	if err != nil {
		t.Fatal(err)
	}
	var joins, leaves atomic.Uint64
	d, err := cup.New(
		cup.WithLive(),
		cup.WithOverlay("can"),
		cup.WithNodes(12),
		cup.WithSeed(5),
		cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...),
		cup.WithQueryRate(2),
		// NodeChurn's default timeline runs join/leave/join at t=50 s,
		// 110 s, 170 s; the window must reach past them.
		cup.WithQueryDuration(180*time.Second),
		cup.WithHopDelay(200*time.Microsecond),
		cup.WithTimeScale(300),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Observe(cup.ObserverFunc(func(e cup.Event) {
		switch e.Kind {
		case cup.EvNodeJoined:
			joins.Add(1)
		case cup.EvNodeLeft:
			leaves.Add(1)
		}
	}))
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if _, err := d.Run(ctx); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if joins.Load() == 0 || leaves.Load() == 0 {
		t.Fatalf("churn scenario produced joins=%d leaves=%d; membership faults must move real peers", joins.Load(), leaves.Load())
	}
}

// TestServingDrainsInFlightGET is the graceful-shutdown regression: a
// GET already inside the CUP query path when Deployment.Close begins
// must complete through the drain window instead of being severed.
func TestServingDrainsInFlightGET(t *testing.T) {
	d, err := cup.New(
		cup.WithLive(),
		cup.WithNodes(16),
		// A generous hop delay keeps the GET's overlay query in flight
		// long enough for Close to start mid-request.
		cup.WithHopDelay(150*time.Millisecond),
		cup.WithSeed(7),
		cup.WithServing("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = d.Close()
		}
	}()
	ctx := context.Background()
	if err := d.Publish(ctx, "drain-key", 0, "198.51.100.77", time.Hour); err != nil {
		t.Fatal(err)
	}
	base := "http://" + d.ServingAddrs()[0]

	type getResult struct {
		status int
		body   string
		err    error
	}
	got := make(chan getResult, 1)
	go func() {
		resp, err := http.Get(base + "/v1/key/drain-key")
		if err != nil {
			got <- getResult{err: err}
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- getResult{status: resp.StatusCode, body: string(raw)}
	}()

	// Let the GET reach the query path (each hop sleeps 150 ms, so it
	// is still in flight), then close the deployment underneath it.
	time.Sleep(100 * time.Millisecond)
	closed = true
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight GET severed by shutdown: %v", r.err)
	}
	if r.status != http.StatusOK || !strings.Contains(r.body, "198.51.100.77") {
		t.Fatalf("in-flight GET = %d %q, want 200 with the published address", r.status, r.body)
	}
}
