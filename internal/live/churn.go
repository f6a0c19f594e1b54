// Runtime membership churn (§2.9) for the live transports. The same
// hand-over choreography the discrete-event driver performs in
// internal/cup/churn.go — overlay re-knit, index hand-over, interest
// bit-vector patching — executed against running peer goroutines: a
// join spawns a live peer and hands it the index entries that now hash
// into its region; a leave collects the departing peer's directory,
// retires its goroutine (inbox drained), and reinstalls the entries at
// each key's new authority. The choreography drives Network.spawn and
// Network.retire, so it is the same on every link.
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

// errStaticOverlay is the descriptive unsupported-churn failure: the
// scenario runner surfaces it instead of dropping the scripted event.
func errStaticOverlay(kind string) error {
	return fmt.Errorf("live: membership churn unsupported: overlay %q is static (§2.9 needs a dynamic substrate such as can or kademlia)", kind)
}

// Join adds one peer to the running network (§2.9 arrivals): the
// substrate wires the newcomer in under the overlay write lock, a fresh
// peer spawns, previous owners hand over the index entries that now hash
// into the joiner's region, and every node whose neighbor set changed
// patches its interest bit vector. Returns the new node's ID, or a
// descriptive error when the overlay substrate is static.
func (n *Network) Join(ctx context.Context) (overlay.NodeID, error) {
	l := n.ov
	d := l.dynamic()
	if d == nil {
		return 0, errStaticOverlay(l.kind)
	}
	l.churnMu.Lock()
	defer l.churnMu.Unlock()
	if n.IsClosed() {
		return 0, ErrClosed // before the substrate grows a member nobody will host
	}

	l.mu.Lock()
	id := d.JoinRand(l.rng)
	l.mu.Unlock()
	n.router.Invalidate()
	if int(id) != n.Size() {
		panic(fmt.Sprintf("live: overlay issued id %v, expected %d", id, n.Size()))
	}
	if err := n.spawn(id); err != nil {
		return 0, err
	}
	n.membership(cup.EvNodeJoined, id, &n.stats.Joins)

	// Hand-over: every previous member's local directory sheds the
	// entries whose keys now hash to the joiner. Ownership checks read
	// the overlay under its read lock from each peer's goroutine; the
	// churn mutex (held here) keeps membership stable meanwhile.
	for m := 0; m < int(id); m++ {
		from := overlay.NodeID(m)
		if !n.IsAlive(from) {
			continue
		}
		var moved []cache.Entry
		err := n.controlNode(ctx, from, func(node *cup.Node) {
			dir := node.LocalDirectory()
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
				node.RemoveLocal(e.Key, e.Replica)
			}
		})
		if err != nil {
			return id, fmt.Errorf("live: join hand-over from %v: %w", from, err)
		}
		if len(moved) == 0 {
			continue
		}
		if err := n.controlNode(ctx, id, func(node *cup.Node) {
			for _, e := range moved {
				node.InstallLocal(e)
			}
		}); err != nil {
			return id, fmt.Errorf("live: join hand-over to %v: %w", id, err)
		}
	}
	rev := reverseNeighbors(n)
	if err := patchNeighborhood(ctx, n, rev, append(rev[id], id)); err != nil {
		return id, err
	}
	return id, nil
}

// Leave retires peer victim (§2.9 departures): its directory is
// collected and its goroutine retired (inbox drained), the substrate
// re-knits around the gap, each collected entry moves to its key's new
// authority, and every node that routed through the victim patches its
// interest bits. Errors on a static overlay, an unknown or
// already-departed node, or the last member.
func (n *Network) Leave(ctx context.Context, victim overlay.NodeID) error {
	l := n.ov
	d := l.dynamic()
	if d == nil {
		return errStaticOverlay(l.kind)
	}
	l.churnMu.Lock()
	defer l.churnMu.Unlock()
	if !n.IsAlive(victim) || !l.memberAlive(victim) {
		return fmt.Errorf("live: leave of node %v: not a live member", victim)
	}
	if l.Size() <= 1 {
		return fmt.Errorf("live: leave of node %v: cannot remove the last member", victim)
	}

	// Channel peers before the re-knit: nodes that list the victim plus
	// the nodes it lists (neighbor relations may be asymmetric).
	affected := slices.Concat(reverseNeighbors(n)[victim], l.Neighbors(victim))

	entries, err := n.retire(ctx, victim)
	if err != nil {
		return fmt.Errorf("live: leave of node %v: %w", victim, err)
	}

	l.mu.Lock()
	heir := d.Leave(victim)
	l.mu.Unlock()
	n.router.Invalidate()

	// Hand the departed node's portion of the global index to each
	// key's new authority (the paper's hand-over alternative, which
	// avoids restarting update propagation).
	byOwner := make(map[overlay.NodeID][]cache.Entry)
	for _, e := range entries {
		byOwner[l.Owner(e.Key)] = append(byOwner[l.Owner(e.Key)], e)
	}
	for to, moved := range byOwner {
		if err := n.controlNode(ctx, to, func(node *cup.Node) {
			for _, e := range moved {
				node.InstallLocal(e)
			}
		}); err != nil {
			return fmt.Errorf("live: leave hand-over to %v: %w", to, err)
		}
	}
	if err := patchNeighborhood(ctx, n, reverseNeighbors(n), append(affected, heir)); err != nil {
		return err
	}
	n.membership(cup.EvNodeLeft, victim, &n.stats.Leaves)
	return nil
}

// reverseNeighbors builds the reverse adjacency of the current overlay
// in one sweep: for each node, the alive nodes that list it as a
// neighbor. Computed once per membership event and shared, as in the
// simulator's churn handlers.
func reverseNeighbors(n *Network) map[overlay.NodeID][]overlay.NodeID {
	l := n.ov
	rev := make(map[overlay.NodeID][]overlay.NodeID, n.Size())
	for m := 0; m < n.Size(); m++ {
		mm := overlay.NodeID(m)
		if !n.IsAlive(mm) {
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
func patchNeighborhood(ctx context.Context, n *Network, rev map[overlay.NodeID][]overlay.NodeID, nodes []overlay.NodeID) error {
	l := n.ov
	seen := make(map[overlay.NodeID]bool, len(nodes))
	for _, id := range nodes {
		if seen[id] || !n.IsAlive(id) {
			continue
		}
		seen[id] = true
		peers := append(l.Neighbors(id), rev[id]...)
		if err := n.controlNode(ctx, id, func(node *cup.Node) {
			node.PatchNeighbors(peers)
		}); err != nil {
			return fmt.Errorf("live: neighborhood patch at %v: %w", id, err)
		}
	}
	return nil
}
