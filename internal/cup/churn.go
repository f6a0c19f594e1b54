package cup

import (
	"fmt"
	"slices"

	"cup/internal/cache"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// This file is §2.9 — node arrivals and departures — written once: every
// runtime drives Churn over its own Members, the simulator running each
// per-node step inline, the live network on the peer's goroutine.

// DynamicOverlay is the churn capability. Any overlay implementing it —
// CAN, Kademlia, or a future kind added through the registry — gets churn
// on every runtime; a static overlay (Chord) does not satisfy it.
type DynamicOverlay interface {
	overlay.Overlay
	// Alive reports whether n is currently a member.
	Alive(overlay.NodeID) bool
	// JoinRand adds one node, drawing any placement randomness from rnd,
	// and returns its dense ID (which must equal the previous size).
	JoinRand(rnd *sim.Rand) overlay.NodeID
	// Leave removes n and returns the heir that takes over its region.
	Leave(n overlay.NodeID) overlay.NodeID
}

// Members is a runtime's node table as the choreography drives it.
type Members interface {
	// Size is the number of node slots ever issued: IDs are dense and
	// never reused, so a departed node keeps its slot.
	Size() int
	Alive(id overlay.NodeID) bool
	// At runs fn with exclusive access to node id's protocol state.
	At(id overlay.NodeID, fn func(*Node)) error
	// Spawn brings node id, the next slot, into service.
	Spawn(id overlay.NodeID) error
	// Retire takes node id out of service and returns its local directory.
	Retire(id overlay.NodeID) (*cache.Store, error)
	// Changed records EvNodeJoined or EvNodeLeft and its stat.
	Changed(kind EventKind, id overlay.NodeID)
}

// Churn binds the choreography to one runtime's substrate: Overlay as
// the runtime's readers see it (nil when static: every change then fails,
// naming Kind), the Router whose memoized routes a change invalidates,
// and the Rand join placements draw from.
type Churn struct {
	Overlay DynamicOverlay
	Kind    string
	Router  *OverlayRouter
	Rand    *sim.Rand
}

// ChurnCapable reports whether the named overlay kind supports §2.9
// membership changes, by building a minimal instance from the registry
// and probing the capability. Unknown kinds report false.
func ChurnCapable(kind string) bool {
	ov, err := overlay.Build(kind, 2, 1)
	_, ok := ov.(DynamicOverlay)
	return err == nil && ok
}

func (c Churn) static() error {
	if c.Overlay == nil {
		return fmt.Errorf("membership churn unsupported: overlay %q is static (§2.9 needs a dynamic substrate such as can or kademlia)", c.Kind)
	}
	return nil
}

// Join adds one member (§2.9 arrivals) and returns its ID: the substrate
// wires it in and memoized routes drop, the runtime spawns it, previous
// owners hand over the index entries that now hash into its region ("M
// could give a copy of its stored index entries to N"), and the joiner
// and every node that now lists it patch their interest bits.
func (c Churn) Join(m Members) (overlay.NodeID, error) {
	if err := c.static(); err != nil {
		return 0, err
	}
	id := c.Overlay.JoinRand(c.Rand)
	c.Router.Invalidate()
	if int(id) != m.Size() {
		panic(fmt.Sprintf("cup: overlay issued id %v, expected %d", id, m.Size()))
	}
	if err := m.Spawn(id); err != nil {
		return 0, err
	}
	m.Changed(EvNodeJoined, id)
	for from := overlay.NodeID(0); from < id; from++ {
		if !m.Alive(from) {
			continue
		}
		var moved []cache.Entry
		err := m.At(from, func(n *Node) {
			dir := n.LocalDirectory()
			for _, k := range dir.Keys() {
				if c.Overlay.Owner(k) == id {
					moved = append(moved, dir.All(k)...)
					dir.RemoveKey(k)
				}
			}
		})
		if err == nil && len(moved) > 0 {
			err = install(m, id, moved)
		}
		if err != nil {
			return id, fmt.Errorf("join hand-over from %v: %w", from, err)
		}
	}
	rev := c.reverseNeighbors(m)
	return id, c.patch(m, rev, append(rev[id], id))
}

// Leave removes member victim (§2.9 departures) and returns the heir of
// its region: the runtime retires it, the substrate re-knits, its portion
// of the global index moves per key to the key's new authority (the
// paper's hand-over alternative, which avoids restarting update
// propagation), and every node that exchanged queries with it patches its
// interest bits. Cached entries elsewhere simply expire.
func (c Churn) Leave(m Members, victim overlay.NodeID) (overlay.NodeID, error) {
	if err := c.static(); err != nil {
		return 0, err
	}
	if !m.Alive(victim) || !c.Overlay.Alive(victim) {
		return 0, fmt.Errorf("leave of node %v: not a live member", victim)
	}
	if c.Overlay.Size() <= 1 {
		return 0, fmt.Errorf("leave of node %v: cannot remove the last member", victim)
	}
	// Before the re-knit edits them: the nodes that list it (they routed
	// through it) and the ones it lists (they hold its interest bits).
	affected := slices.Concat(c.reverseNeighbors(m)[victim], c.Overlay.Neighbors(victim))
	dir, err := m.Retire(victim)
	if err != nil {
		return 0, fmt.Errorf("leave of node %v: %w", victim, err)
	}
	heir := c.Overlay.Leave(victim)
	c.Router.Invalidate()
	for _, k := range dir.Keys() {
		if err := install(m, c.Overlay.Owner(k), dir.All(k)); err != nil {
			return heir, fmt.Errorf("leave hand-over of %q: %w", k, err)
		}
	}
	if err := c.patch(m, c.reverseNeighbors(m), append(affected, heir)); err != nil {
		return heir, err
	}
	m.Changed(EvNodeLeft, victim)
	return heir, nil
}

// install adds entries to node to's local directory.
func install(m Members, to overlay.NodeID, entries []cache.Entry) error {
	return m.At(to, func(n *Node) {
		for _, e := range entries {
			n.InstallLocal(e)
		}
	})
}

// reverseNeighbors maps each node to the members that list it as a
// neighbor, in one sweep that a change computes once and shares.
func (c Churn) reverseNeighbors(m Members) map[overlay.NodeID][]overlay.NodeID {
	rev := make(map[overlay.NodeID][]overlay.NodeID, m.Size())
	for id := overlay.NodeID(0); int(id) < m.Size(); id++ {
		if m.Alive(id) {
			for _, nb := range c.Overlay.Neighbors(id) {
				rev[nb] = append(rev[nb], id)
			}
		}
	}
	return rev
}

// patch re-syncs the interest bit vectors of nodes with their channel
// peers (§2.9: "a local operation that affects only each individual
// node"): its own neighbors and, per rev, the nodes that query it — the
// two differ on Kademlia's directed buckets.
func (c Churn) patch(m Members, rev map[overlay.NodeID][]overlay.NodeID, nodes []overlay.NodeID) error {
	slices.Sort(nodes)
	for _, id := range slices.Compact(nodes) {
		if !m.Alive(id) {
			continue
		}
		peers := slices.Concat(c.Overlay.Neighbors(id), rev[id])
		if err := m.At(id, func(n *Node) { n.PatchNeighbors(peers) }); err != nil {
			return fmt.Errorf("neighborhood patch at %v: %w", id, err)
		}
	}
	return nil
}

// NodeAlive reports whether id is currently a member of the run. Until a
// member has left, every node of the run is one, and the overlay is not
// asked.
func (s *Simulation) NodeAlive(id overlay.NodeID) bool {
	if int(id) < 0 || int(id) >= s.nodes.size {
		return false
	}
	return s.departed == 0 || s.dyn.Alive(id)
}

func (s *Simulation) churn() Churn {
	return Churn{Overlay: s.dyn, Kind: s.P.OverlayKind, Router: s.Router, Rand: s.Rng}
}

// At, Spawn, Retire and Changed make simSurface the run's Members, whose
// every step runs inline.
func (a simSurface) At(id overlay.NodeID, fn func(*Node)) error {
	fn(a.s.nodes.at(id))
	return nil
}

func (a simSurface) Spawn(id overlay.NodeID) error {
	a.s.env.node(a.s.nodes.add(), id)
	return nil
}

// Retire counts the departure: from now on NodeAlive asks the overlay.
func (a simSurface) Retire(id overlay.NodeID) (*cache.Store, error) {
	a.s.departed++
	return a.s.nodes.at(id).LocalDirectory().Take(), nil
}

func (a simSurface) Changed(kind EventKind, id overlay.NodeID) {
	if obs := a.s.env.obs; obs != nil {
		obs.OnEvent(Event{Kind: kind, Time: a.s.Sched.Now(), Node: id, Peer: overlay.NoNode})
	}
}
