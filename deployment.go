package cup

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	internal "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// runtime is the transport-agnostic execution substrate behind a
// Deployment: the discrete-event simulator and the live network
// implement it identically, so application code written against a
// Deployment transfers between evaluation and deployment unchanged.
type runtime interface {
	// Transport reports which substrate is executing.
	Transport() Transport
	// Size returns the number of peers in the overlay.
	Size() int
	// Authority returns the node owning key's index entries.
	Authority(key Key) NodeID
	// LookupAt posts a client query for key at node `at` and waits for
	// the index entries (or ctx cancellation). On the simulator, waiting
	// means driving the virtual clock.
	LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error)
	// Publish registers (key, replica) served at addr with its authority
	// and propagates the event down the interest tree — as an Append when
	// refresh is false, as a lifetime-extending Refresh otherwise.
	Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration, refresh bool) error
	// Unpublish deletes (key, replica) at the authority and propagates a
	// Delete so caches stop serving the dead replica.
	Unpublish(ctx context.Context, key Key, replica int) error
	// SetCapacity adjusts a node's outgoing update capacity fraction
	// (§3.7); negative restores full capacity.
	SetCapacity(ctx context.Context, id NodeID, c float64) error
	// Inspect runs fn with exclusive access to one node's protocol state.
	Inspect(id NodeID, fn func(*Node)) error
	// Settle blocks until the deployment quiesces: the simulator drains
	// its event queue, the live network waits for in-flight traffic to
	// stop.
	Settle(ctx context.Context) error
	// Counters snapshots the run's cost counters (§3.3), as the protocol
	// core counted them.
	Counters() Counters
	// Close releases the substrate. Further client calls fail.
	Close() error
}

// Deployment is a running CUP system built by New: a runtime plus the
// shared event bus and the application-facing client API. One Deployment
// abstraction covers both the paper's evaluation harness and a live
// service.
type Deployment struct {
	rt  runtime
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

	mu sync.Mutex
	// rng picks Lookup's entry peers, seeded with the run's seed at the
	// first Lookup (nil until then).
	rng       *rand.Rand
	published map[pubKey]bool
	detach    []func()
	closed    bool
}

type pubKey struct {
	key     Key
	replica int
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
		published: make(map[pubKey]bool),
	}

	switch o.transport {
	case Simulated:
		d.rt = &simRuntime{s: internal.NewSimulation(o.p)}
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
		lr := &liveRuntime{tcp: o.transport == LiveTCP}
		if lr.tcp {
			n, err := live.NewTCPNetwork(cfg)
			if err != nil {
				return nil, fmt.Errorf("cup: tcp transport: %w", err)
			}
			lr.n = n
		} else {
			lr.n = live.NewNetwork(cfg)
		}
		d.rt = lr
	default:
		return nil, fmt.Errorf("cup: unknown transport %d", int(o.transport))
	}
	if o.telemetry {
		if err := d.initTelemetry(&o); err != nil {
			_ = d.rt.Close()
			return nil, err
		}
	}
	if len(o.serving) > 0 {
		if err := d.initServing(&o); err != nil {
			if d.tele != nil && d.tele.srv != nil {
				_ = d.tele.srv.Close()
			}
			_ = d.rt.Close()
			return nil, err
		}
	}
	return d, nil
}

// Transport reports which substrate executes this deployment.
func (d *Deployment) Transport() Transport { return d.rt.Transport() }

// Size returns the number of peers.
func (d *Deployment) Size() int { return d.rt.Size() }

// Authority returns the node owning key's index entries.
func (d *Deployment) Authority(key Key) NodeID { return d.rt.Authority(key) }

// Counters snapshots the deployment's cost counters (§3.3), which every
// transport counts alike.
func (d *Deployment) Counters() Counters { return d.rt.Counters() }

// Lookup resolves key from a deterministically random peer — the
// client's entry point is arbitrary in a P2P network. Use LookupAt to
// pick the peer.
func (d *Deployment) Lookup(ctx context.Context, key Key) ([]Entry, error) {
	size := d.rt.Size()
	d.mu.Lock()
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(d.p.Seed))
	}
	at := NodeID(d.rng.Intn(size))
	d.mu.Unlock()
	return d.rt.LookupAt(ctx, at, key)
}

// LookupAt posts a client query for key at node `at` and waits for the
// index entries, honoring ctx cancellation on both transports.
func (d *Deployment) LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error) {
	return d.rt.LookupAt(ctx, at, key)
}

// Publish registers (key, replica) served at addr: an Append update on
// first publication, a lifetime-extending Refresh on re-publication.
// Replicas should re-Publish before lifetime elapses.
func (d *Deployment) Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration) error {
	pk := pubKey{key, replica}
	d.mu.Lock()
	refresh := d.published[pk]
	d.mu.Unlock()
	if err := d.rt.Publish(ctx, key, replica, addr, lifetime, refresh); err != nil {
		return err
	}
	d.mu.Lock()
	d.published[pk] = true
	d.mu.Unlock()
	return nil
}

// Unpublish deletes (key, replica) and propagates the Delete.
func (d *Deployment) Unpublish(ctx context.Context, key Key, replica int) error {
	if err := d.rt.Unpublish(ctx, key, replica); err != nil {
		return err
	}
	d.mu.Lock()
	delete(d.published, pubKey{key, replica})
	d.mu.Unlock()
	return nil
}

// SetCapacity adjusts a node's outgoing update capacity fraction (§3.7).
func (d *Deployment) SetCapacity(ctx context.Context, id NodeID, c float64) error {
	return d.rt.SetCapacity(ctx, id, c)
}

// Inspect runs fn with exclusive access to one node's protocol state
// (on the live transport, on that peer's goroutine).
func (d *Deployment) Inspect(id NodeID, fn func(*Node)) error {
	return d.rt.Inspect(id, fn)
}

// Settle blocks until the deployment quiesces (no in-flight traffic).
func (d *Deployment) Settle(ctx context.Context) error { return d.rt.Settle(ctx) }

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
	if sr, ok := d.rt.(*simRuntime); ok {
		sr.mu.Lock()
		sr.s.SetObserver(d.bus)
		sr.mu.Unlock()
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
	if sr, ok := d.rt.(*simRuntime); ok {
		return sr.run(ctx)
	}
	if d.p.Traffic == nil {
		return nil, fmt.Errorf("cup: Run on a live deployment needs a scenario (WithTraffic); interactive deployments are driven through Lookup/Publish")
	}
	return d.runLive(ctx, d.rt.(*liveRuntime))
}

// Keys lists the scripted workload's keys on the simulated transport
// (nil on live deployments, which name their own keys via Publish).
func (d *Deployment) Keys() []Key {
	if sr, ok := d.rt.(*simRuntime); ok {
		return append([]Key(nil), sr.s.Keys...)
	}
	return nil
}

// EventsExecuted reports the discrete events the simulated transport
// has fired so far; 0 on the live transport, whose work has no event
// granularity.
func (d *Deployment) EventsExecuted() uint64 {
	if sr, ok := d.rt.(*simRuntime); ok {
		sr.mu.Lock()
		defer sr.mu.Unlock()
		return sr.s.Sched.Executed
	}
	return 0
}

// Now returns the deployment clock: virtual seconds on the simulator,
// wall-clock seconds since boot on the live network.
func (d *Deployment) Now() sim.Time {
	if sr, ok := d.rt.(*simRuntime); ok {
		sr.mu.Lock()
		defer sr.mu.Unlock()
		return sr.s.Sched.Now()
	}
	return d.rt.(*liveRuntime).n.Now()
}

// Close shuts the deployment down and detaches its telemetry observers.
func (d *Deployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	detach := d.detach
	d.detach = nil
	d.mu.Unlock()
	for _, f := range detach {
		f()
	}
	// Serving stops before the runtime: its handlers call into rt, and
	// closing the listeners first turns in-flight requests into clean
	// connection errors instead of ErrClosed races.
	if d.serve != nil {
		d.serve.close()
	}
	if d.tele != nil && d.tele.srv != nil {
		_ = d.tele.srv.Close()
	}
	return d.rt.Close()
}

// simRuntime executes a deployment on the discrete-event scheduler. All
// methods serialize on one mutex: the scheduler is single-threaded by
// design, and client calls drive it directly.
type simRuntime struct {
	mu sync.Mutex
	s  *internal.Simulation
}

func (r *simRuntime) Transport() Transport { return Simulated }

func (r *simRuntime) Size() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.Size()
}

func (r *simRuntime) Authority(key Key) NodeID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.Ov.Owner(key)
}

func (r *simRuntime) LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.Lookup(ctx, at, key)
}

func (r *simRuntime) Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration, refresh bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ty := Append
	if refresh {
		ty = Refresh
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.PublishReplica(key, replica, addr, sim.Duration(lifetime.Seconds()), ty)
	return nil
}

func (r *simRuntime) Unpublish(ctx context.Context, key Key, replica int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.RemoveReplica(key, replica)
	return nil
}

func (r *simRuntime) SetCapacity(ctx context.Context, id NodeID, c float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.s.SetCapacityFraction([]NodeID{id}, c)
	return nil
}

func (r *simRuntime) Inspect(id NodeID, fn func(*Node)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.s.Node(id)
	if n == nil {
		return fmt.Errorf("cup: inspect of unknown node %v", id)
	}
	fn(n)
	return nil
}

func (r *simRuntime) Settle(ctx context.Context) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.Settle(ctx)
}

func (r *simRuntime) Counters() Counters {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.s.C
}

func (r *simRuntime) Close() error { return nil }

func (r *simRuntime) run(ctx context.Context) (*Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.RunContext(ctx)
}

// liveRuntime executes a deployment on a live network — goroutine
// peers by default, one OS socket per peer with tcp set. New boots the
// network; either way it is one live.Network, so everything past boot
// is transport-blind.
type liveRuntime struct {
	n   *live.Network
	tcp bool
}

func (r *liveRuntime) Transport() Transport {
	if r.tcp {
		return LiveTCP
	}
	return Live
}

func (r *liveRuntime) Size() int { return r.n.Size() }

func (r *liveRuntime) Authority(key Key) NodeID { return r.n.Authority(key) }

func (r *liveRuntime) LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error) {
	return r.n.Lookup(ctx, at, key)
}

func (r *liveRuntime) Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration, refresh bool) error {
	if refresh {
		return r.n.RefreshCtx(ctx, key, replica, addr, lifetime)
	}
	return r.n.AddReplicaCtx(ctx, key, replica, addr, lifetime)
}

func (r *liveRuntime) Unpublish(ctx context.Context, key Key, replica int) error {
	return r.n.RemoveReplicaCtx(ctx, key, replica)
}

func (r *liveRuntime) SetCapacity(ctx context.Context, id NodeID, c float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.n.SetCapacity(ctx, id, c)
}

func (r *liveRuntime) Inspect(id NodeID, fn func(*Node)) error {
	if id < 0 || int(id) >= r.n.Size() {
		return fmt.Errorf("cup: inspect of unknown node %v", id)
	}
	r.n.Inspect(id, fn)
	return nil
}

// Settle polls the traffic counters until two consecutive probe windows
// see no new messages. Messages are counted at send time but sleep one
// hop delay in flight before delivery can trigger further sends, so the
// probe window must exceed the hop delay or in-flight traffic would be
// invisible to it.
func (r *liveRuntime) Settle(ctx context.Context) error {
	window := 2 * r.n.HopDelay()
	if window < 15*time.Millisecond {
		window = 15 * time.Millisecond
	}
	for quiet := 0; quiet < 2; {
		if err := ctx.Err(); err != nil {
			return err
		}
		if r.n.IsClosed() {
			return live.ErrClosed
		}
		if r.n.Quiesced(window) {
			quiet++
		} else {
			quiet = 0
		}
	}
	return nil
}

func (r *liveRuntime) Counters() Counters { return r.n.Counters() }

func (r *liveRuntime) Close() error {
	r.n.Close()
	return nil
}
