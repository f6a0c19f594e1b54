package cup_test

import (
	"context"
	"testing"
	"time"

	"cup"
	internal "cup/internal/cup"
)

// A simulation nobody listens to emits no events: New leaves its observer
// unset, and the first listener installs the bus. These tests hold both
// halves — the unobserved run has no observer at all, and a listener that
// attaches after New, whichever way it attaches, sees the run's every
// event.

// lateAttachOpts is a small simulated run with enough load on one key for
// local queries to coalesce behind a pending first-time query.
func lateAttachOpts() []cup.Option {
	return []cup.Option{
		cup.WithNodes(64),
		cup.WithQueryRate(20),
		cup.WithQueryDuration(300 * time.Second),
		cup.WithSeed(3),
	}
}

func run(t *testing.T, d *cup.Deployment) cup.Counters {
	t.Helper()
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res.Counters
}

func TestUnobservedSimulationHasNoObserver(t *testing.T) {
	d := newDeployment(t, lateAttachOpts()...)
	if o := cup.SimObserver(d); o != nil {
		t.Fatalf("New installed observer %T on a simulation nobody listens to", o)
	}
	run(t, d)
	if o := cup.SimObserver(d); o != nil {
		t.Fatalf("the unobserved run ended with observer %T installed", o)
	}
}

func TestObserveAfterNewSeesEveryQuery(t *testing.T) {
	unobserved := run(t, newDeployment(t, lateAttachOpts()...))

	d := newDeployment(t, lateAttachOpts()...)
	var issued, coalesced uint64
	d.Observe(cup.ObserverFunc(func(e cup.Event) {
		switch {
		case e.Kind == cup.EvQueryIssued:
			issued++
		case e.Kind == cup.EvQueryCoalesced && e.Peer == internal.LocalClient:
			coalesced++
		}
	}))
	if cup.SimObserver(d) == nil {
		t.Fatal("Observe left the simulation without an observer")
	}
	c := run(t, d)
	if c != unobserved {
		t.Fatalf("observing changed the run:\nobserved   %+v\nunobserved %+v", c, unobserved)
	}
	if c.Coalesced == 0 {
		t.Fatal("no local query coalesced: the run exercises nothing")
	}
	if issued != c.Queries || coalesced != c.Coalesced {
		t.Fatalf("observer saw %d issued and %d locally coalesced queries; counters say %d and %d",
			issued, coalesced, c.Queries, c.Coalesced)
	}
}

func TestObserveAfterNewSeesChurn(t *testing.T) {
	sc, err := cup.BuildScenario("churn")
	if err != nil {
		t.Fatal(err)
	}
	d := newDeployment(t, cup.WithOverlay("can"), cup.WithNodes(32), cup.WithSeed(5),
		cup.WithScenario(sc), cup.WithQueryRate(2))
	var joins, leaves int
	d.Observe(cup.ObserverFunc(func(e cup.Event) {
		switch e.Kind {
		case cup.EvNodeJoined:
			joins++
		case cup.EvNodeLeft:
			leaves++
		}
	}))
	run(t, d)
	if joins == 0 || leaves == 0 {
		t.Fatalf("observer attached after New saw joins=%d leaves=%d of the churn scenario", joins, leaves)
	}
}

// Events and WithTelemetry's collector attach after New as well — the
// collector inside it, once the runtime exists — and see the run too.
func TestEventsAndTelemetrySeeTheRun(t *testing.T) {
	// Small enough for every event to fit the subscriber's buffer.
	opts := append(lateAttachOpts(), cup.WithQueryRate(0.2), cup.WithQueryDuration(100*time.Second))
	t.Run("Events", func(t *testing.T) {
		d := newDeployment(t, opts...)
		ch, cancel := d.Events()
		c := run(t, d)
		cancel()
		issued := uint64(0)
		for e := range ch {
			if e.Kind == cup.EvQueryIssued {
				issued++
			}
		}
		if c.Queries == 0 || issued != c.Queries {
			t.Fatalf("Events saw %d issued queries, counters say %d", issued, c.Queries)
		}
	})
	t.Run("WithTelemetry", func(t *testing.T) {
		d := newDeployment(t, append(opts, cup.WithTelemetry(""))...)
		c := run(t, d)
		got, _ := d.MetricValue("cup_events_total", cup.MetricLabel{Key: "kind", Value: "query-issued"})
		if c.Queries == 0 || uint64(got) != c.Queries {
			t.Fatalf("telemetry counted %v issued queries, counters say %d", got, c.Queries)
		}
	})
}
