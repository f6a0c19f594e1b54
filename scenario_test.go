// Tests of the public Scenario API: the registry, option validation,
// and end-to-end scenario execution on both transports.
package cup_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"cup"
)

func TestScenarioRegistryCatalog(t *testing.T) {
	names := cup.ScenarioNames()
	for _, want := range []string{"paper", "flashcrowd", "diurnal", "zipf-drift", "closed-loop", "capacity", "churn", "replica-churn"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("built-in scenario %q missing from registry %v", want, names)
		}
	}
	if _, err := cup.BuildScenario("no-such-scenario"); err == nil {
		t.Error("unknown scenario built without error")
	}
	sc, err := cup.BuildScenario("flashcrowd")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "flashcrowd" || sc.Traffic == nil {
		t.Fatalf("flashcrowd scenario = %+v", sc)
	}
}

// Options validation: New must reject nonsense descriptively rather than
// building a deployment that panics later.
func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  cup.Option
		frag string // expected error fragment
	}{
		{"negative nodes", cup.WithNodes(-3), "node count"},
		{"zero nodes", cup.WithNodes(0), "node count"},
		{"negative keys", cup.WithKeys(-1), "key count"},
		{"zero keys", cup.WithKeys(0), "key count"},
		{"zero rate", cup.WithQueryRate(0), "query rate"},
		{"negative rate", cup.WithQueryRate(-2), "query rate"},
		{"negative replicas", cup.WithReplicas(-1), "replica count"},
		{"zero lifetime", cup.WithLifetime(0), "lifetime"},
		{"negative zipf", cup.WithZipf(-0.5), "Zipf skew"},
		{"negative hop", cup.WithHopDelay(-time.Second), "hop delay"},
		{"zero duration", cup.WithQueryDuration(0), "query duration"},
		{"negative window", cup.WithQueryDuration(-time.Second), "query duration"},
		{"zero timescale", cup.WithTimeScale(0), "time scale"},
		{"nil traffic", cup.WithTraffic(nil), "WithTraffic"},
		{"nil fault", cup.WithFaults(nil), "nil fault"},
		{"unknown overlay", cup.WithOverlay("no-such-overlay"), "unknown overlay"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := cup.New(tc.opt)
			if err == nil {
				t.Fatalf("New accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

// All option errors must surface together, not first-error-wins.
func TestNewAggregatesValidationErrors(t *testing.T) {
	_, err := cup.New(cup.WithNodes(-1), cup.WithQueryRate(-1), cup.WithKeys(-1))
	if err == nil {
		t.Fatal("no error for triple-invalid options")
	}
	for _, frag := range []string{"node count", "query rate", "key count"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("aggregated error %q missing %q", err, frag)
		}
	}
}

// Every catalog scenario must run end to end on the simulated
// transport and produce queries.
func TestAllScenariosRunSimulated(t *testing.T) {
	for _, name := range cup.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			sc, err := cup.BuildScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := cup.New(
				cup.WithNodes(64),
				cup.WithKeys(3),
				cup.WithQueryRate(4),
				cup.WithQueryDuration(300*time.Second),
				cup.WithSeed(5),
				cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			res, err := d.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.Queries == 0 {
				t.Fatal("scenario produced no queries")
			}
		})
	}
}

// The same scenarios must replay on the live transport: wall-clock
// traffic pump, scripted replica births, fault timeline. Each replay
// mostly waits on the wall clock, so they wait side by side.
func TestScenariosRunLive(t *testing.T) {
	for _, name := range []string{"flashcrowd", "diurnal", "capacity", "closed-loop"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := cup.BuildScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			d, err := cup.New(
				cup.WithTransport(cup.Live),
				cup.WithNodes(16),
				cup.WithKeys(2),
				cup.WithQueryRate(20),
				cup.WithLifetime(2*time.Second), // the window starts one lifetime in
				cup.WithQueryDuration(20*time.Second),
				cup.WithHopDelay(200*time.Microsecond),
				cup.WithSeed(5),
				cup.WithTimeScale(20), // 22 scenario seconds ≈ 1.1 s wall
				cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...),
			)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := d.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counters.TotalCost() == 0 {
				t.Fatal("live scenario moved no messages")
			}
		})
	}
}

// A live deployment without a scenario stays interactive: Run errors.
func TestLiveRunStillNeedsScenario(t *testing.T) {
	d, err := cup.New(cup.WithTransport(cup.Live), cup.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Run(context.Background()); err == nil {
		t.Fatal("live Run without a scenario must error")
	}
}

// A cancelled context must stop a live scenario run promptly.
func TestLiveScenarioHonorsContext(t *testing.T) {
	d, err := cup.New(
		cup.WithTransport(cup.Live),
		cup.WithNodes(8),
		cup.WithQueryDuration(time.Hour),
		cup.WithTraffic(cup.PoissonTraffic(1)),
		cup.WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := d.Run(ctx); err == nil {
		t.Fatal("hour-long live scenario returned before its window without error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// WithFaults composes with the default traffic on the simulator and
// changes the run (capacity loss reduces update propagation).
func TestWithFaultsComposes(t *testing.T) {
	run := func(opts ...cup.Option) cup.Counters {
		base := []cup.Option{
			cup.WithNodes(64),
			cup.WithQueryRate(2),
			cup.WithQueryDuration(600 * time.Second),
			cup.WithSeed(7),
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
	full := run()
	faulted := run(cup.WithFaults(cup.CapacityFault{Capacity: 0}))
	if faulted.UpdateHops >= full.UpdateHops {
		t.Fatalf("capacity fault did not reduce update hops: %d vs %d",
			faulted.UpdateHops, full.UpdateHops)
	}
}
