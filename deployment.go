package cup

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	internal "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Deployment is a running CUP system built by New: the discrete-event
// simulation or the live network that executes it, the shared event bus
// and the application-facing client API. Exactly one of sim and net is
// set, and each client call branches on which, so one Deployment covers
// both the paper's evaluation harness and a live service.
type Deployment struct {
	// sim is the simulated transport's run. Every call on it holds simMu:
	// the scheduler is single-threaded by design, and client calls drive
	// it directly.
	sim   *internal.Simulation
	simMu sync.Mutex
	// net is the live transport's network: goroutine peers on Live, one
	// socket per peer on LiveTCP.
	net *live.Network
	bus *internal.Bus
	// p is the resolved parameter set: the simulator consumes it via
	// NewSimulation; the live scenario runner (Run on the live
	// transport) reads the workload shape from it.
	p internal.Params
	// timeScale compresses scenario replay on the live transport.
	timeScale float64
	// tele is the WithTelemetry observability state (nil without it).
	tele *telemetry
	// serve is the WithServing HTTP serving layer (nil without it).
	serve *serving
	// detach removes the telemetry observers from the bus (set by New).
	detach []func()

	closeOnce sync.Once
	// closed is set once Close has stopped serving: from then on the
	// simulation refuses client calls, as a closed live network does.
	closed atomic.Bool

	mu sync.Mutex
	// rng picks Lookup's entry peers, seeded with the run's seed at the
	// first Lookup (nil until then).
	rng *rand.Rand
}

// New builds a deployment from functional options: one construction path
// for both transports.
//
//	d, err := cup.New(cup.WithTransport(cup.Live), cup.WithOverlay("kademlia"), cup.WithNodes(256))
//
// Unset knobs use the paper's defaults (1024-node CAN, 300 s lifetimes,
// seed 1, ...) from the shared defaults table. A live deployment's
// network is up when New returns; on LiveTCP a failed boot (port budget
// exhausted, listeners unavailable) is New's error. Callers must Close
// the deployment when done.
func New(opts ...Option) (*Deployment, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	o.p = o.p.WithDefaults()
	if !overlay.Registered(o.p.OverlayKind) {
		o.reject("unknown overlay %q (registered: %s)", o.p.OverlayKind, overlay.KindList())
	}
	if o.p.Nodes <= 0 {
		o.reject("node count %d must be positive", o.p.Nodes)
	}
	if o.p.Keys <= 0 {
		o.reject("key count %d must be positive", o.p.Keys)
	}
	if o.p.QueryRate <= 0 {
		o.reject("query rate %g must be positive", o.p.QueryRate)
	}
	if overlay.Registered(o.p.OverlayKind) && !internal.ChurnCapable(o.p.OverlayKind) {
		// Fail at construction, not mid-run: a membership fault script on
		// a static overlay can never execute, and discovering that only
		// when the fault timeline reaches it (or worse, not at all) is
		// the silent no-op this check exists to prevent.
		for _, f := range o.p.Faults {
			if mf, ok := f.(internal.MembershipFault); ok && mf.RequiresMembership() {
				o.reject("fault %q needs membership churn, but overlay %q is static (§2.9 churn needs a dynamic substrate such as can or kademlia)",
					f.Name(), o.p.OverlayKind)
			}
		}
	}
	if err := errors.Join(o.errs...); err != nil {
		return nil, err
	}

	// The bus is where every listener attaches. A live network emits to it
	// from boot; a simulation gets it as its observer only once something
	// listens (listen), so an unobserved run builds no events.
	bus := internal.NewBus()
	d := &Deployment{
		bus:       bus,
		p:         o.p,
		timeScale: o.timeScale,
	}

	switch o.transport {
	case Simulated:
		d.sim = internal.NewSimulation(o.p)
	case Live, LiveTCP:
		hop := o.liveHop
		if hop == 0 && o.transport == Live {
			hop = internal.DefaultLiveHopDelay
		}
		cfg := live.Config{
			Nodes:      o.p.Nodes,
			Overlay:    o.p.OverlayKind,
			HopDelay:   hop,
			Node:       o.p.Config,
			Seed:       o.p.Seed,
			InboxDepth: o.inboxDepth,
			Observer:   bus,
		}
		if o.transport == LiveTCP {
			n, err := live.NewTCPNetwork(cfg)
			if err != nil {
				return nil, fmt.Errorf("cup: tcp transport: %w", err)
			}
			d.net = n
		} else {
			d.net = live.NewNetwork(cfg)
		}
	default:
		return nil, fmt.Errorf("cup: unknown transport %d", int(o.transport))
	}
	if o.telemetry {
		if err := d.initTelemetry(&o); err != nil {
			_ = d.Close()
			return nil, err
		}
	}
	if len(o.serving) > 0 {
		if err := d.initServing(&o); err != nil {
			_ = d.Close()
			return nil, err
		}
	}
	return d, nil
}

// onSim runs fn on the simulation under simMu, unless ctx has ended or
// the deployment is closed.
func (d *Deployment) onSim(ctx context.Context, fn func(s *internal.Simulation) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	if d.closed.Load() {
		return live.ErrClosed
	}
	return fn(d.sim)
}

// Size returns the number of peers.
func (d *Deployment) Size() int {
	if d.net != nil {
		return d.net.Size()
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Size()
}

// Authority returns the node owning key's index entries.
func (d *Deployment) Authority(key Key) NodeID {
	if d.net != nil {
		return d.net.Authority(key)
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Ov.Owner(key)
}

// Counters snapshots the deployment's cost counters (§3.3), which every
// transport counts alike. After Close it still reads the run's totals.
func (d *Deployment) Counters() Counters {
	if d.net != nil {
		return d.net.Counters()
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return *d.sim.C
}

// Lookup resolves key from a deterministically random peer — the
// client's entry point is arbitrary in a P2P network. Use LookupAt to
// pick the peer.
func (d *Deployment) Lookup(ctx context.Context, key Key) ([]Entry, error) {
	size := d.Size()
	d.mu.Lock()
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.p.Seed))
	}
	at := NodeID(d.rng.Intn(size))
	d.mu.Unlock()
	return d.LookupAt(ctx, at, key)
}

// LookupAt posts a client query for key at node `at` and waits for the
// index entries, honoring ctx cancellation on both transports. On the
// simulator, waiting means driving the virtual clock.
func (d *Deployment) LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error) {
	if d.net != nil {
		return d.net.Lookup(ctx, at, key)
	}
	var entries []Entry
	err := d.onSim(ctx, func(s *internal.Simulation) (err error) {
		entries, err = s.Lookup(ctx, at, key)
		return err
	})
	return entries, err
}

// Publish registers (key, replica) served at addr with its authority and
// propagates the event down the interest tree: an Append update on first
// publication, a lifetime-extending Refresh on re-publication — the
// authority tells the two apart by its directory. Replicas should
// re-Publish before lifetime elapses.
func (d *Deployment) Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration) error {
	if d.net != nil {
		return d.net.AddReplicaCtx(ctx, key, replica, addr, lifetime)
	}
	return d.onSim(ctx, func(s *internal.Simulation) error {
		s.PublishReplica(key, replica, addr, sim.Duration(lifetime.Seconds()), Append)
		return nil
	})
}

// Unpublish deletes (key, replica) at the authority and propagates a
// Delete so caches stop serving the dead replica.
func (d *Deployment) Unpublish(ctx context.Context, key Key, replica int) error {
	if d.net != nil {
		return d.net.RemoveReplicaCtx(ctx, key, replica)
	}
	return d.onSim(ctx, func(s *internal.Simulation) error { s.RemoveReplica(key, replica); return nil })
}

// Settle blocks until the deployment quiesces: the simulator drains its
// event queue; the live network polls the traffic counters until two
// consecutive probe windows see no new messages. Messages are counted at
// send time but sleep one hop delay in flight before delivery can
// trigger further sends, so the probe window must exceed the hop delay
// or in-flight traffic would be invisible to it.
func (d *Deployment) Settle(ctx context.Context) error {
	if d.net == nil {
		return d.onSim(ctx, func(s *internal.Simulation) error { return s.Settle(ctx) })
	}
	window := 2 * d.net.HopDelay()
	if window < 15*time.Millisecond {
		window = 15 * time.Millisecond
	}
	for quiet := 0; quiet < 2; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if d.net.IsClosed() {
			return live.ErrClosed
		}
		if d.net.Quiesced(window) {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

// Observe attaches a synchronous observer to the event bus; the returned
// function detaches it. Live-transport observers are called from peer
// goroutines concurrently and must be safe for concurrent use. Observers
// run inside the emitting transport and must not call back into the
// Deployment; an observer that needs the client API hands the event to
// a goroutine of its own.
//
// A simulation emits no events until the first listener (Observe or
// WithTelemetry) attaches, and sees every event from then on. On the
// simulator an attach waits for a Run in progress to finish, so attach
// before Run to see the run.
func (d *Deployment) Observe(obs Observer) (detach func()) {
	d.listen()
	return d.bus.Attach(obs)
}

// listen makes the bus the simulation's observer before a listener
// attaches to it: the first attach installs it, later ones find it there.
// A live network has emitted to the bus since boot.
func (d *Deployment) listen() {
	if d.sim != nil {
		d.simMu.Lock()
		d.sim.SetObserver(d.bus)
		d.simMu.Unlock()
	}
}

// Run executes the scripted workload to completion and returns the
// aggregated result. On the simulated transport it drives the virtual
// clock through the whole schedule. On the live transport it replays
// the configured scenario in wall-clock time (compressed by
// WithTimeScale): scripted replica births, then one timeline of
// refreshes, arrivals and faults (replay.go) — so a live deployment
// without a WithTraffic workload still errors, staying interactive.
// Sweeps of independent runs belong to internal/experiment's Engine.
func (d *Deployment) Run(ctx context.Context) (*Result, error) {
	if d.net == nil {
		var res *Result
		err := d.onSim(ctx, func(s *internal.Simulation) (err error) {
			res, err = s.RunContext(ctx)
			return err
		})
		return res, err
	}
	if d.p.Traffic == nil {
		return nil, fmt.Errorf("cup: Run on a live deployment needs a scenario (WithTraffic); interactive deployments are driven through Lookup/Publish")
	}
	return d.runLive(ctx)
}

// Keys lists the scripted workload's keys on the simulated transport
// (nil on live deployments, which name their own keys via Publish).
func (d *Deployment) Keys() []Key {
	if d.sim == nil {
		return nil
	}
	return append([]Key(nil), d.sim.Keys...)
}

// EventsExecuted reports the discrete events the simulated transport
// has fired so far; 0 on the live transport, whose work has no event
// granularity.
func (d *Deployment) EventsExecuted() uint64 {
	if d.sim == nil {
		return 0
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Sched.Executed
}

// Now returns the deployment clock: virtual seconds on the simulator,
// wall-clock seconds since boot on the live network.
func (d *Deployment) Now() sim.Time {
	if d.net != nil {
		return d.net.Now()
	}
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Sched.Now()
}

// Close shuts the deployment down and detaches its telemetry observers.
// Further client calls fail with an error that errors.Is live.ErrClosed;
// Counters keeps reading the run's totals.
func (d *Deployment) Close() error {
	d.closeOnce.Do(func() {
		for _, f := range d.detach {
			f()
		}
		// Serving stops before the simulation or network: its handlers
		// call into them, and closing the listeners first turns in-flight
		// requests into clean connection errors instead of ErrClosed races.
		if d.serve != nil {
			d.serve.close()
		}
		if d.tele != nil && d.tele.srv != nil {
			_ = d.tele.srv.Close()
		}
		d.closed.Store(true)
		if d.net != nil {
			d.net.Close()
		}
	})
	return nil
}
