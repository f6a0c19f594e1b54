// Runtime membership churn (§2.9) for the live transports. The same
// hand-over choreography the discrete-event driver performs in
// internal/cup/churn.go — overlay re-knit, index hand-over, interest
// bit-vector patching — executed against running peer goroutines: a
// join spawns a live peer and hands it the index entries that now hash
// into its region; a leave collects the departing peer's directory,
// retires its goroutine (inbox drained), and reinstalls the entries at
// each key's new authority. Both networks (goroutine and TCP) share the
// choreography through the churnHost surface below.
package live

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// dynamicOverlay is the churn capability, mirroring the simulator's
// (internal/cup): membership queries plus uniform join/leave hooks. CAN
// and Kademlia implement it; a static substrate (Chord) does not.
type dynamicOverlay interface {
	overlay.Overlay
	// Alive reports whether n is currently a member.
	Alive(overlay.NodeID) bool
	// JoinRand adds one node, drawing any placement randomness from rnd,
	// and returns its dense ID (which must equal the previous size).
	JoinRand(rnd *sim.Rand) overlay.NodeID
	// Leave removes n and returns the heir that takes over its region.
	Leave(n overlay.NodeID) overlay.NodeID
}

// lockedOverlay makes one overlay safe for concurrent routing reads
// from peer goroutines while membership mutations happen: reads
// (Owner, NextHop, Neighbors, Size) take the read lock, a churn
// operation takes the write lock for the instant of the substrate
// mutation. The overlay kinds themselves are not thread-safe; every
// live network routes through this wrapper.
type lockedOverlay struct {
	mu   sync.RWMutex
	ov   overlay.Overlay
	kind string

	// churnMu serializes whole join/leave operations (the multi-step
	// choreography, not just the substrate mutation); rng draws the
	// join placement randomness under it.
	churnMu sync.Mutex
	rng     *sim.Rand
}

func newLockedOverlay(ov overlay.Overlay, kind string, seed int64) *lockedOverlay {
	return &lockedOverlay{ov: ov, kind: kind, rng: sim.NewRand(seed)}
}

func (l *lockedOverlay) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.Size()
}

func (l *lockedOverlay) Owner(k overlay.Key) overlay.NodeID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.Owner(k)
}

func (l *lockedOverlay) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.NextHop(n, k)
}

// Neighbors returns a copy: the substrate's own slice is only valid until
// the next Join or Leave, which edits it in place once the read lock is
// released.
func (l *lockedOverlay) Neighbors(n overlay.NodeID) []overlay.NodeID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]overlay.NodeID(nil), l.ov.Neighbors(n)...)
}

// dynamic returns the wrapped substrate's churn capability, nil when it
// is static.
func (l *lockedOverlay) dynamic() dynamicOverlay {
	d, _ := l.ov.(dynamicOverlay)
	return d
}

// memberAlive reports substrate membership (true for every in-range ID
// on a static overlay).
func (l *lockedOverlay) memberAlive(id overlay.NodeID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if d, ok := l.ov.(dynamicOverlay); ok {
		return d.Alive(id)
	}
	return true
}

// churnHost is what the shared §2.9 choreography needs from a live
// network: overlay and router access, per-node protocol control on the
// owning goroutine, and member lifecycle hooks.
type churnHost interface {
	// lov is the network's locked overlay.
	lov() *lockedOverlay
	// invalidateRoutes drops the router's memoized routes.
	invalidateRoutes()
	// slots is the number of peer slots ever allocated (dense IDs).
	slots() int
	// aliveSlot reports whether peer id exists and has not departed.
	aliveSlot(id overlay.NodeID) bool
	// spawnMember creates and starts peer id (== slots() at call time).
	spawnMember(id overlay.NodeID) error
	// retireMember collects peer id's local directory and retires its
	// goroutine: the peer stops applying protocol state changes and its
	// inbox drains.
	retireMember(ctx context.Context, id overlay.NodeID) ([]cache.Entry, error)
	// controlNode runs fn on peer id's goroutine with exclusive access
	// to its protocol state.
	controlNode(ctx context.Context, id overlay.NodeID, fn func(*cup.Node)) error
	// emitMembership publishes a §2.9 membership event.
	emitMembership(kind cup.EventKind, id overlay.NodeID)
	// countChurn bumps the join/leave stat counters.
	countChurn(join bool)
}

// errStaticOverlay is the descriptive unsupported-churn failure: the
// scenario runner surfaces it instead of dropping the scripted event.
func errStaticOverlay(kind string) error {
	return fmt.Errorf("live: membership churn unsupported: overlay %q is static (§2.9 needs a dynamic substrate such as can or kademlia)", kind)
}

// churnJoin is §2.9 Arrivals on a live network: the substrate wires the
// newcomer in under the overlay write lock, a fresh peer goroutine
// spawns, previous owners hand over the index entries that now hash
// into the joiner's region, and every node whose neighbor set changed
// patches its interest bit vector.
func churnJoin(ctx context.Context, h churnHost) (overlay.NodeID, error) {
	l := h.lov()
	d := l.dynamic()
	if d == nil {
		return 0, errStaticOverlay(l.kind)
	}
	l.churnMu.Lock()
	defer l.churnMu.Unlock()

	l.mu.Lock()
	id := d.JoinRand(l.rng)
	l.mu.Unlock()
	h.invalidateRoutes()
	if int(id) != h.slots() {
		panic(fmt.Sprintf("live: overlay issued id %v, expected %d", id, h.slots()))
	}
	if err := h.spawnMember(id); err != nil {
		return 0, err
	}
	h.emitMembership(cup.EvNodeJoined, id)
	h.countChurn(true)

	// Hand-over: every previous member's local directory sheds the
	// entries whose keys now hash to the joiner. Ownership checks read
	// the overlay under its read lock from each peer's goroutine; the
	// churn mutex (held here) keeps membership stable meanwhile.
	for m := 0; m < int(id); m++ {
		from := overlay.NodeID(m)
		if !h.aliveSlot(from) {
			continue
		}
		var moved []cache.Entry
		err := h.controlNode(ctx, from, func(n *cup.Node) {
			dir := n.LocalDirectory()
			if dir.Len() == 0 {
				return
			}
			for _, k := range dir.Keys() {
				if l.Owner(k) != id {
					continue
				}
				moved = append(moved, dir.All(k)...)
			}
			for _, e := range moved {
				n.RemoveLocal(e.Key, e.Replica)
			}
		})
		if err != nil {
			return id, fmt.Errorf("live: join hand-over from %v: %w", from, err)
		}
		if len(moved) == 0 {
			continue
		}
		if err := h.controlNode(ctx, id, func(n *cup.Node) {
			for _, e := range moved {
				n.InstallLocal(e)
			}
		}); err != nil {
			return id, fmt.Errorf("live: join hand-over to %v: %w", id, err)
		}
	}
	rev := reverseNeighbors(h)
	if err := patchNeighborhood(ctx, h, rev, append(rev[id], id)); err != nil {
		return id, err
	}
	return id, nil
}

// churnLeave is §2.9 Departures: the victim's directory is collected
// and its goroutine retired (inbox drained), the substrate re-knits
// around the gap, each collected entry moves to its key's new
// authority, and every node that routed through the victim patches its
// interest bits.
func churnLeave(ctx context.Context, h churnHost, victim overlay.NodeID) error {
	l := h.lov()
	d := l.dynamic()
	if d == nil {
		return errStaticOverlay(l.kind)
	}
	l.churnMu.Lock()
	defer l.churnMu.Unlock()
	if !h.aliveSlot(victim) || !l.memberAlive(victim) {
		return fmt.Errorf("live: leave of node %v: not a live member", victim)
	}
	if l.Size() <= 1 {
		return fmt.Errorf("live: leave of node %v: cannot remove the last member", victim)
	}

	// Channel peers before the re-knit: nodes that list the victim plus
	// the nodes it lists (neighbor relations may be asymmetric).
	affected := slices.Concat(reverseNeighbors(h)[victim], l.Neighbors(victim))

	entries, err := h.retireMember(ctx, victim)
	if err != nil {
		return fmt.Errorf("live: leave of node %v: %w", victim, err)
	}

	l.mu.Lock()
	heir := d.Leave(victim)
	l.mu.Unlock()
	h.invalidateRoutes()

	// Hand the departed node's portion of the global index to each
	// key's new authority (the paper's hand-over alternative, which
	// avoids restarting update propagation).
	byOwner := make(map[overlay.NodeID][]cache.Entry)
	for _, e := range entries {
		byOwner[l.Owner(e.Key)] = append(byOwner[l.Owner(e.Key)], e)
	}
	for to, moved := range byOwner {
		if err := h.controlNode(ctx, to, func(n *cup.Node) {
			for _, e := range moved {
				n.InstallLocal(e)
			}
		}); err != nil {
			return fmt.Errorf("live: leave hand-over to %v: %w", to, err)
		}
	}
	if err := patchNeighborhood(ctx, h, reverseNeighbors(h), append(affected, heir)); err != nil {
		return err
	}
	h.emitMembership(cup.EvNodeLeft, victim)
	h.countChurn(false)
	return nil
}

// reverseNeighbors builds the reverse adjacency of the current overlay
// in one sweep: for each node, the alive nodes that list it as a
// neighbor. Computed once per membership event and shared, as in the
// simulator's churn handlers.
func reverseNeighbors(h churnHost) map[overlay.NodeID][]overlay.NodeID {
	l := h.lov()
	rev := make(map[overlay.NodeID][]overlay.NodeID, h.slots())
	for m := 0; m < h.slots(); m++ {
		mm := overlay.NodeID(m)
		if !h.aliveSlot(mm) {
			continue
		}
		for _, nb := range l.Neighbors(mm) {
			rev[nb] = append(rev[nb], mm)
		}
	}
	return rev
}

// patchNeighborhood re-syncs interest bit vectors with current channel
// peers for the affected nodes — each patch runs on the owning peer's
// goroutine, so it serializes with that peer's protocol work exactly
// like any other message.
func patchNeighborhood(ctx context.Context, h churnHost, rev map[overlay.NodeID][]overlay.NodeID, nodes []overlay.NodeID) error {
	l := h.lov()
	seen := make(map[overlay.NodeID]bool, len(nodes))
	for _, id := range nodes {
		if seen[id] || !h.aliveSlot(id) {
			continue
		}
		seen[id] = true
		peers := append(l.Neighbors(id), rev[id]...)
		if err := h.controlNode(ctx, id, func(n *cup.Node) {
			n.PatchNeighbors(peers)
		}); err != nil {
			return fmt.Errorf("live: neighborhood patch at %v: %w", id, err)
		}
	}
	return nil
}
