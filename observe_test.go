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
		cup.WithTraffic(sc.Traffic), cup.WithFaults(sc.Faults...), cup.WithQueryRate(2))
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

// The event stream reaches an observer and WithTelemetry's collector
// attached after New — the collector inside it, once the runtime exists —
// and a detached observer stops seeing it.
func TestEventsAndTelemetrySeeTheRun(t *testing.T) {
	opts := append(lateAttachOpts(), cup.WithQueryRate(0.2), cup.WithQueryDuration(100*time.Second))
	t.Run("Observe", func(t *testing.T) {
		d := newDeployment(t, opts...)
		var issued, late uint64
		detach := d.Observe(cup.ObserverFunc(func(e cup.Event) {
			if e.Kind == cup.EvQueryIssued {
				issued++
			}
		}))
		d.Observe(cup.ObserverFunc(func(cup.Event) { late++ }))()
		c := run(t, d)
		detach()
		if c.Queries == 0 || issued != c.Queries || late != 0 {
			t.Fatalf("observer saw %d issued queries, counters say %d; a detached one saw %d events", issued, c.Queries, late)
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
