// Tests of the unified deployment API: one construction path (cup.New +
// functional options) building both transports, the shared client API,
// and the event bus.
package cup_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cup"
	internal "cup/internal/cup"
	"cup/internal/live"
)

func newDeployment(t *testing.T, opts ...cup.Option) *cup.Deployment {
	t.Helper()
	d, err := cup.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := cup.New(cup.WithOverlay("no-such-overlay")); err == nil {
		t.Error("unknown overlay accepted")
	}
	if _, err := cup.New(cup.WithNodes(-3)); err == nil {
		t.Error("negative node count accepted")
	}
}

func TestNewDefaultsMatchSharedTable(t *testing.T) {
	d := newDeployment(t, cup.WithoutWorkload())
	if d.Transport() != cup.Simulated {
		t.Errorf("default transport = %v", d.Transport())
	}
	if d.Size() != 1024 {
		t.Errorf("default size = %d, want the paper's 1024", d.Size())
	}
}

// The same options must build both transports, and the client API must
// behave identically: publish two replicas, look them up, delete one,
// look up again.
func TestClientAPIAcrossTransports(t *testing.T) {
	for _, transport := range []cup.Transport{cup.Simulated, cup.Live} {
		transport := transport
		t.Run(transport.String(), func(t *testing.T) {
			d := newDeployment(t,
				cup.WithTransport(transport),
				cup.WithNodes(16),
				cup.WithoutWorkload(),
				cup.WithHopDelay(300*time.Microsecond),
				cup.WithSeed(5),
			)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()

			const key = cup.Key("movie")
			for r := 0; r < 2; r++ {
				if err := d.Publish(ctx, key, r, "10.0.0.1", time.Hour); err != nil {
					t.Fatalf("publish: %v", err)
				}
			}
			at := cup.NodeID(3)
			if d.Authority(key) == at {
				at = 4
			}
			entries, err := d.LookupAt(ctx, at, key)
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if len(entries) != 2 {
				t.Fatalf("lookup = %d entries, want 2", len(entries))
			}

			if err := d.Unpublish(ctx, key, 0); err != nil {
				t.Fatalf("unpublish: %v", err)
			}
			if err := d.Settle(ctx); err != nil {
				t.Fatalf("settle: %v", err)
			}
			entries, err = d.LookupAt(ctx, d.Authority(key), key)
			if err != nil {
				t.Fatalf("post-delete lookup: %v", err)
			}
			if len(entries) != 1 || entries[0].Replica != 1 {
				t.Fatalf("post-delete entries = %+v, want only replica 1", entries)
			}

			// The random-entry Lookup variant resolves too.
			if _, err := d.Lookup(ctx, key); err != nil {
				t.Fatalf("random-peer lookup: %v", err)
			}
		})
	}
}

func TestLookupHonorsContextOnBothTransports(t *testing.T) {
	const key = cup.Key("unreachable")
	pickNode := func(d *cup.Deployment) cup.NodeID {
		at := cup.NodeID(2)
		if d.Authority(key) == at {
			at = 3
		}
		return at
	}

	// Live: an hour-long wall-clock hop means no lookup can resolve
	// before the deadline; cancellation must unblock the caller.
	t.Run("live", func(t *testing.T) {
		d := newDeployment(t,
			cup.WithTransport(cup.Live),
			cup.WithNodes(16),
			cup.WithHopDelay(time.Hour),
			cup.WithSeed(5),
		)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if _, err := d.LookupAt(ctx, pickNode(d), key); err == nil {
			t.Fatal("lookup on an undeliverable network returned without error")
		}
	})

	// Simulated: virtual delays collapse instantly, so cancellation
	// matters for runaway schedules — an already-cancelled context must
	// stop the lookup before it drives the clock.
	t.Run("simulated", func(t *testing.T) {
		d := newDeployment(t,
			cup.WithTransport(cup.Simulated),
			cup.WithNodes(16),
			cup.WithoutWorkload(),
			cup.WithSeed(5),
		)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := d.LookupAt(ctx, pickNode(d), key); err == nil {
			t.Fatal("cancelled simulated lookup returned without error")
		}
	})
}

func TestRunMatchesCompatibilityWrapper(t *testing.T) {
	d := newDeployment(t,
		cup.WithNodes(64),
		cup.WithQueryRate(2),
		cup.WithQueryDuration(300*time.Second),
		cup.WithSeed(9),
	)
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	legacy := internal.Run(internal.Params{Nodes: 64, QueryRate: 2, QueryDuration: 300, Seed: 9})
	if res.Counters != legacy.Counters {
		t.Fatalf("options path diverged from Params path:\n new %+v\n old %+v",
			res.Counters, legacy.Counters)
	}
}

func TestSubscribeFiltersByKey(t *testing.T) {
	d := newDeployment(t,
		cup.WithNodes(16),
		cup.WithoutWorkload(),
		cup.WithSeed(5),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	events, stop := d.Subscribe("watched")
	defer stop()

	if err := d.Publish(ctx, "watched", 0, "10.0.0.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := d.Publish(ctx, "other", 0, "10.0.0.2", time.Hour); err != nil {
		t.Fatal(err)
	}
	for _, key := range []cup.Key{"watched", "other"} {
		at := cup.NodeID(1)
		if d.Authority(key) == at {
			at = 2
		}
		if _, err := d.LookupAt(ctx, at, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Settle(ctx); err != nil {
		t.Fatal(err)
	}

	stop() // closes the channel so the drain below terminates
	got := 0
	for e := range events {
		if e.Key != "watched" {
			t.Fatalf("subscription leaked event for %q: %+v", e.Key, e)
		}
		got++
	}
	if got == 0 {
		t.Fatal("subscription saw no events for its key")
	}
}

// The simulated transport's accessors on one run: the workload's keys,
// the events fired, Counters equal to the Result's, and a capacity change
// read back through Inspect.
func TestSimDeploymentAccessors(t *testing.T) {
	d := newDeployment(t, cup.WithNodes(16), cup.WithKeys(3), cup.WithQueryRate(2),
		cup.WithQueryDuration(100*time.Second), cup.WithSeed(4))
	if got, want := d.Keys(), []cup.Key{"key-0", "key-1", "key-2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Keys = %v, want %v", got, want)
	}
	if n := d.EventsExecuted(); n != 0 {
		t.Errorf("EventsExecuted = %d before Run, want 0", n)
	}
	ctx := context.Background()
	res, err := d.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.EventsExecuted() == 0 {
		t.Error("EventsExecuted = 0 after a run that issued queries")
	}
	if got := d.Counters(); got != res.Counters {
		t.Errorf("Counters = %+v, Result says %+v", got, res.Counters)
	}

	if err := d.SetCapacity(ctx, 5, 0.25); err != nil {
		t.Fatal(err)
	}
	var got float64
	if err := d.Inspect(5, func(n *cup.Node) { got = n.Capacity() }); err != nil {
		t.Fatal(err)
	}
	if got != 0.25 {
		t.Errorf("Capacity after SetCapacity(0.25) = %g", got)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := d.SetCapacity(cancelled, 5, 0.5); !errors.Is(err, context.Canceled) {
		t.Errorf("SetCapacity with a cancelled ctx: %v, want context.Canceled", err)
	}
}

// A live deployment reports its transport, and has neither scripted keys
// nor discrete events.
func TestLiveDeploymentAccessors(t *testing.T) {
	for _, tr := range []cup.Transport{cup.Live, cup.LiveTCP} {
		t.Run(tr.String(), func(t *testing.T) {
			d := newDeployment(t, cup.WithTransport(tr), cup.WithNodes(4))
			if got := d.Transport(); got != tr {
				t.Errorf("Transport = %v, want %v", got, tr)
			}
			if keys := d.Keys(); keys != nil {
				t.Errorf("Keys = %v, want nil", keys)
			}
			if n := d.EventsExecuted(); n != 0 {
				t.Errorf("EventsExecuted = %d, want 0", n)
			}
		})
	}
}

// Close must terminate consumers ranging over event channels, and a
// late stop() must stay a safe no-op.
func TestCloseUnblocksEventConsumers(t *testing.T) {
	d, err := cup.New(cup.WithTransport(cup.Live), cup.WithNodes(8), cup.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	events, stop := d.Events()
	done := make(chan struct{})
	go func() {
		for range events {
		}
		close(done)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Publish(ctx, "k", 0, "10.0.0.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(ctx, "k"); err != nil {
		t.Fatal(err)
	}

	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the event consumer")
	}
	stop() // after Close already closed the channel: must not panic
}

// Settle must outwait in-flight messages even when the hop delay
// exceeds its minimum probe window: after it returns, traffic counters
// stay put.
func TestSettleWaitsOutSlowHops(t *testing.T) {
	d := newDeployment(t,
		cup.WithTransport(cup.Live),
		cup.WithNodes(16),
		cup.WithHopDelay(50*time.Millisecond),
		cup.WithSeed(5),
	)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	const key = cup.Key("slow")
	if err := d.Publish(ctx, key, 0, "10.0.0.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	at := cup.NodeID(3)
	if d.Authority(key) == at {
		at = 4
	}
	if _, err := d.LookupAt(ctx, at, key); err != nil {
		t.Fatal(err)
	}
	// Refresh: pushes now travel the interest tree, one slow hop at a time.
	if err := d.Publish(ctx, key, 0, "10.0.0.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := d.Settle(ctx); err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	time.Sleep(150 * time.Millisecond)
	if after := d.Counters(); after != before {
		t.Fatalf("traffic continued after Settle: %+v -> %+v", before, after)
	}
}

// An observer attached with Observe after New sees every query the
// scripted workload issues: no boot path emits an event, so nothing is
// missed by attaching late.
func TestObserveSeesWorkloadEvents(t *testing.T) {
	issued := 0
	d := newDeployment(t,
		cup.WithNodes(32),
		cup.WithQueryRate(2),
		cup.WithQueryDuration(200*time.Second),
		cup.WithSeed(3),
	)
	d.Observe(cup.ObserverFunc(func(e cup.Event) {
		if e.Kind == cup.EvQueryIssued {
			issued++
		}
	}))
	res, err := d.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if uint64(issued) != res.Counters.Queries {
		t.Fatalf("observer saw %d issued queries, counters say %d", issued, res.Counters.Queries)
	}
}

// A closed live deployment's Lookup says why it cannot answer — its
// network is gone — instead of hanging or drawing from an empty range.
func TestLookupAfterCloseReturnsErrClosed(t *testing.T) {
	d, err := cup.New(cup.WithLive(), cup.WithNodes(8))
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := d.Lookup(context.Background(), "k"); !errors.Is(err, live.ErrClosed) {
		t.Fatalf("Lookup on a closed deployment: %v, want live.ErrClosed", err)
	}
}

// A TCP deployment boots its network in New, so a boot the port ledger
// has no room for is New's error: it names the budget and leaves the
// ledger where it was, and the same New succeeds once there is room.
func TestTCPBootFailureIsNewError(t *testing.T) {
	opts := []cup.Option{cup.WithTransport(cup.LiveTCP), cup.WithNodes(16)}
	before := live.PortsInUse()
	hold := live.DefaultPortBudget - before - 15 // room for 15 listeners, not 16
	if err := live.AcquireListeners(hold); err != nil {
		t.Fatal(err)
	}
	d, err := cup.New(opts...)
	held := live.PortsInUse()
	live.ReleaseListeners(hold)
	if err == nil {
		d.Close()
		t.Fatal("New booted 16 TCP peers with room for 15 in the port budget")
	}
	if !strings.Contains(err.Error(), "port budget") {
		t.Fatalf("New error %q does not name the exhausted port budget", err)
	}
	if held != before+hold {
		t.Fatalf("PortsInUse = %d after the refused boot, want %d", held, before+hold)
	}

	d = newDeployment(t, opts...)
	if got := live.PortsInUse(); got != before+16 {
		t.Fatalf("PortsInUse = %d with 16 TCP peers up, want %d", got, before+16)
	}
	d.Close()
	if got := live.PortsInUse(); got != before {
		t.Fatalf("PortsInUse = %d after Close, want baseline %d", got, before)
	}
}

// SetCapacity on the live transports is a control call like any other:
// it gives up when its ctx does — here while waiting for room in a
// saturated inbox — and rejects a node id the network never issued, as
// Inspect does.
func TestLiveSetCapacityHonorsContextAndRejectsUnknownNode(t *testing.T) {
	for _, transport := range []cup.Transport{cup.Live, cup.LiveTCP} {
		t.Run(transport.String(), func(t *testing.T) {
			d := newDeployment(t, cup.WithTransport(transport), cup.WithNodes(4),
				cup.WithInboxDepth(1), cup.WithTelemetry(""))
			if err := d.SetCapacity(context.Background(), 99, 0.5); err == nil {
				t.Fatal("SetCapacity accepted a node id the network never issued")
			}

			// Park peer 0 inside a callback and queue one more behind it:
			// its inbox of one is now full.
			release, parked := make(chan struct{}), make(chan struct{})
			defer close(release)
			go func() { _ = d.Inspect(0, func(*cup.Node) { close(parked); <-release }) }()
			<-parked
			go func() { _ = d.Inspect(0, func(*cup.Node) {}) }()
			for used := 0.0; used < 1; used, _ = d.MetricValue("cup_live_inbox_used") {
				time.Sleep(time.Millisecond)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- d.SetCapacity(ctx, 0, 0.5) }()
			select {
			case err := <-done:
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("SetCapacity against a full inbox: %v, want context.DeadlineExceeded", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("SetCapacity outlived its context by 5 s waiting on a full inbox")
			}
		})
	}
}
