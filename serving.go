package cup

import (
	"context"
	"fmt"
	"sync"
	"time"

	internal "cup/internal/cup"
	"cup/internal/live"
	"cup/internal/obs"
	"cup/internal/serve"
	"cup/internal/sim"
)

// WithServing mounts the HTTP serving layer (internal/serve) on the
// deployment: GET/PUT/DELETE /v1/key/{key} and POST
// /v1/key/{key}/promise, served on every listed address (":0" picks
// free ports; read them back via ServingAddrs). A GET miss funnels into
// CUP's query path at a deterministic per-key entry node, so the
// protocol's query coalescing is the server-side thundering-herd
// guard; the promise endpoint exposes justcache-style miss
// coordination (202 you-populate / 409 someone-else-is + Retry-After)
// to smart clients (package cup/client).
//
// Serving and telemetry share listeners: an address named by both
// WithServing and WithTelemetry is bound once and serves /metrics,
// /trace, /debug/pprof, and /v1/* together. Serving addresses always
// expose the metrics endpoints — the serving counters live on the same
// registry — even without WithTelemetry.
func WithServing(addrs ...string) Option {
	return func(o *options) {
		if len(addrs) == 0 {
			o.reject("WithServing needs at least one listen address")
			return
		}
		for _, a := range addrs {
			if a == "" {
				o.reject("WithServing got an empty listen address")
				return
			}
		}
		o.serving = append(o.serving, addrs...)
	}
}

// WithAdmitRate shapes the serving layer's write-path token bucket:
// rate tokens/s with the given burst depth. Zero values keep the shared
// defaults (DefaultAdmitRate, DefaultAdmitBurst in internal/cup); a
// negative rate disables admission control entirely. Only meaningful
// together with WithServing.
func WithAdmitRate(rate float64, burst int) Option {
	return func(o *options) {
		o.admitRate = rate
		o.admitBurst = burst
	}
}

// serving bundles the per-deployment serving-layer state.
type serving struct {
	srv       *serve.Server
	reg       *obs.Registry
	listeners []*obs.Server
	budgeted  int
}

// deploymentBackend adapts a Deployment to the serve.Backend surface.
type deploymentBackend struct{ d *Deployment }

func (b deploymentBackend) Size() int     { return b.d.Size() }
func (b deploymentBackend) Now() sim.Time { return b.d.Now() }

func (b deploymentBackend) LookupAt(ctx context.Context, at NodeID, key Key) ([]Entry, error) {
	return b.d.LookupAt(ctx, at, key)
}

func (b deploymentBackend) Publish(ctx context.Context, key Key, replica int, addr string, lifetime time.Duration) error {
	return b.d.Publish(ctx, key, replica, addr, lifetime)
}

func (b deploymentBackend) Unpublish(ctx context.Context, key Key, replica int) error {
	return b.d.Unpublish(ctx, key, replica)
}

// Load reports live inbox occupancy for the shedding guard; simulated
// deployments report unknown.
func (b deploymentBackend) Load() (used, capacity int) {
	if lr, ok := b.d.rt.(*liveRuntime); ok {
		return lr.n.InboxLoad()
	}
	return 0, 0
}

// NodeLoad is Load for the one peer a GET enters at (serve.NodeLoader).
func (b deploymentBackend) NodeLoad(at NodeID) (used, capacity int) {
	if lr, ok := b.d.rt.(*liveRuntime); ok {
		return lr.n.InboxLoadAt(at)
	}
	return 0, 0
}

var _ serve.NodeLoader = deploymentBackend{}

// initServing builds the serving layer and binds its listeners. Called
// from New after telemetry, so the serving metrics land on the
// telemetry registry when both are enabled.
func (d *Deployment) initServing(o *options) error {
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if d.tele != nil {
		reg = d.tele.reg
		tracer = d.tele.tracer
	}
	srv, err := serve.New(serve.Config{
		Backend:    deploymentBackend{d},
		Registry:   reg,
		AdmitRate:  o.admitRate,
		AdmitBurst: o.admitBurst,
	})
	if err != nil {
		return fmt.Errorf("cup: serving: %w", err)
	}
	sv := &serving{srv: srv, reg: reg}

	// One mux per distinct address; telemetry endpoints ride along on
	// every serving address. HTTP listeners draw from the same
	// process-wide budget as live TCP runtime ports, so parallel
	// deployments cannot overcommit the loopback range.
	addrs := dedupeAddrs(o.serving)
	if err := live.AcquireListeners(len(addrs)); err != nil {
		_ = srv.Close()
		return fmt.Errorf("cup: serving: %w", err)
	}
	sv.budgeted = len(addrs)
	for _, addr := range addrs {
		mux := obs.NewMux(reg, tracer)
		srv.Register(mux)
		ln, err := obs.Serve(addr, mux)
		if err != nil {
			sv.close()
			return fmt.Errorf("cup: serving: %w", err)
		}
		sv.listeners = append(sv.listeners, ln)
		// The telemetry address, when it names a serving listener, is
		// served here rather than by a second server on the same port.
		if d.tele != nil && d.tele.srv == nil && o.telemetryAddr == addr {
			d.tele.srv = ln
		}
	}
	d.serve = sv
	return nil
}

// close tears the serving layer down: listeners drain first (new
// connections refused immediately, in-flight requests given a bounded
// deadline to complete — they still reach the runtime, which closes
// after us), then the promise janitor, then the port budget. A request
// still running at the deadline is force-closed so the ports release
// either way.
func (s *serving) close() {
	ctx, cancel := context.WithTimeout(context.Background(), internal.DefaultServeDrainTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, ln := range s.listeners {
		ln := ln
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = ln.Shutdown(ctx)
		}()
	}
	wg.Wait()
	_ = s.srv.Close()
	if s.budgeted > 0 {
		live.ReleaseListeners(s.budgeted)
		s.budgeted = 0
	}
}

// ServingAddrs returns the bound serving addresses (useful with
// WithServing(":0")), or nil when the serving layer is not enabled.
func (d *Deployment) ServingAddrs() []string {
	if d.serve == nil {
		return nil
	}
	out := make([]string, len(d.serve.listeners))
	for i, ln := range d.serve.listeners {
		out[i] = ln.Addr()
	}
	return out
}

// ServingEntryNode reports which peer a served GET for key enters the
// overlay at — the node whose pending-first-update flag coalesces a
// miss storm for the key (see serve.EntryNode).
func (d *Deployment) ServingEntryNode(key Key) NodeID {
	return serve.EntryNode(key, d.rt.Size())
}

// addrClaimedByServing reports whether addr is among the WithServing
// addresses, i.e. initServing will bind (or has bound) it.
func addrClaimedByServing(o *options, addr string) bool {
	for _, a := range o.serving {
		if a == addr {
			return true
		}
	}
	return false
}

// dedupeAddrs drops duplicate listen addresses, preserving order.
func dedupeAddrs(addrs []string) []string {
	seen := make(map[string]bool, len(addrs))
	out := make([]string, 0, len(addrs))
	for _, a := range addrs {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}
