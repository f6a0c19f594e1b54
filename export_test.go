package cup

import (
	"context"
	"fmt"

	internal "cup/internal/cup"
)

// SimObserver returns the observer a simulated deployment's run emits to:
// nil until something listens.
func SimObserver(d *Deployment) internal.Observer {
	d.simMu.Lock()
	defer d.simMu.Unlock()
	return d.sim.Observer()
}

// Node is the CUP protocol state machine for one peer, as Inspect hands
// it to its callback.
type Node = internal.Node

// InboxDepthOption sizes each live peer's admission capacity at n, so a
// test can overload one peer with a handful of waiters.
func InboxDepthOption(n int) Option {
	return func(o *options) { o.inboxDepth = n }
}

// Transport reports which substrate executes this deployment, read off
// what New built: no network is the simulator, and only the TCP link
// has no injected hop delay.
func (d *Deployment) Transport() Transport {
	switch {
	case d.net == nil:
		return Simulated
	case d.net.HopDelay() == 0:
		return LiveTCP
	default:
		return Live
	}
}

// SetCapacity adjusts a node's outgoing update capacity fraction (§3.7);
// negative restores full capacity. Scripted runs do this through
// CapacityFault.
func (d *Deployment) SetCapacity(ctx context.Context, id NodeID, c float64) error {
	if d.net != nil {
		return d.net.SetCapacity(ctx, id, c)
	}
	return d.onSim(ctx, func(s *internal.Simulation) error { s.SetCapacityFraction([]NodeID{id}, c); return nil })
}

// Inspect runs fn with exclusive access to one node's protocol state
// (on the live transport, under that peer's lock).
func (d *Deployment) Inspect(id NodeID, fn func(*Node)) error {
	if d.net != nil {
		if id < 0 || int(id) >= d.net.Size() {
			return fmt.Errorf("cup: inspect of unknown node %v", id)
		}
		return d.net.Inspect(id, fn)
	}
	return d.onSim(context.Background(), func(s *internal.Simulation) error {
		n := s.Node(id)
		if n == nil {
			return fmt.Errorf("cup: inspect of unknown node %v", id)
		}
		fn(n)
		return nil
	})
}
