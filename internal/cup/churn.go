package cup

import (
	"fmt"
	"slices"

	"cup/internal/overlay"
	"cup/internal/sim"
)

// This file implements §2.9 — node arrivals and departures — for the
// discrete-event driver. Churn is supported on any substrate exposing the
// dynamicOverlay capability below: the CAN (zones split on join and are
// absorbed by a neighbor on departure) and Kademlia (buckets re-knit
// around the changed membership). On every membership change the next
// hops nodes cached are invalidated, the affected nodes' interest bit vectors are
// patched, and on departure the departing node's portion of the global
// index is handed over per key to its new authority (the paper's
// hand-over alternative, which avoids restarting update propagation).

// dynamicOverlay is the churn capability: membership queries plus uniform
// join/leave hooks. Any overlay implementing it — including future kinds
// added through the registry — gets JoinNode/LeaveNode for free; a static
// overlay (Chord) does not satisfy it.
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

// SupportsChurn reports whether this run's substrate handles JoinNode and
// LeaveNode.
func (s *Simulation) SupportsChurn() bool { return s.dyn != nil }

// ChurnCapable reports whether the named overlay kind supports §2.9
// membership changes, by building a minimal instance from the registry
// and probing the capability. Unknown kinds report false.
func ChurnCapable(kind string) bool {
	ov, err := overlay.Build(kind, 2, 1)
	if err != nil {
		return false
	}
	_, ok := ov.(dynamicOverlay)
	return ok
}

// NodeAlive reports whether id is currently a member. Until a member has
// left, every node of the run is one, and the overlay is not asked.
//
//cup:hotpath
func (s *Simulation) NodeAlive(id overlay.NodeID) bool {
	if int(id) < 0 || int(id) >= len(s.Nodes) {
		return false
	}
	return s.departed == 0 || s.dyn.Alive(id)
}

// JoinNode adds a fresh node (§2.9 Arrivals): the substrate wires it in
// (zone split on the CAN, bucket insertion on Kademlia), stale routes are
// dropped, previous owners hand over the index entries that now hash to
// the joiner, and every node whose routing table changed patches its
// interest bit vector. The new node's ID is returned.
func (s *Simulation) JoinNode() overlay.NodeID {
	if s.dyn == nil {
		panic(fmt.Sprintf("cup: JoinNode requires a dynamic overlay, have %q", s.P.OverlayKind))
	}
	s.Router.Dynamic = true
	id := s.dyn.JoinRand(s.Rng)
	s.Router.Invalidate()

	if int(id) != len(s.Nodes) {
		panic(fmt.Sprintf("cup: overlay issued id %v, expected %d", id, len(s.Nodes)))
	}
	s.Nodes = append(s.Nodes, s.env.node(new(Node), id))
	s.emitMembership(EvNodeJoined, id)

	// Previous owners hand over the index entries that now hash into the
	// joiner's region (§2.9: "M could give a copy of its stored index
	// entries to N"). On the CAN only the split node holds such entries;
	// in the XOR space they may come from several nodes. Only nodes with
	// non-empty local directories (≈ one per key) pay the ownership
	// checks, so the sweep is a cheap map-iteration for everyone else.
	for m := range s.Nodes[:id] {
		from := overlay.NodeID(m)
		if s.NodeAlive(from) && s.Nodes[from].LocalDirectory().Len() > 0 {
			s.handOverLocal(from, id)
		}
	}
	// Patch everyone whose neighbor set changed: the joiner plus the
	// nodes that now list it (covers asymmetric Kademlia buckets, where
	// inserting the joiner may also evict a previous neighbor).
	rev := s.reverseNeighbors()
	s.patchNeighborhood(rev, append(rev[id], id))
	return id
}

// LeaveNode removes a member (§2.9 Departures): the departing node's
// portion of the global index moves per key to the key's new authority —
// on the CAN that is always the zone-absorbing heir, in the XOR space the
// new closest node per key — interest bit vectors of every node that
// routed through the victim are patched, and cached entries at other
// nodes simply expire. The substrate's heir is returned.
func (s *Simulation) LeaveNode(victim overlay.NodeID) overlay.NodeID {
	if s.dyn == nil {
		panic(fmt.Sprintf("cup: LeaveNode requires a dynamic overlay, have %q", s.P.OverlayKind))
	}
	if !s.dyn.Alive(victim) {
		panic(fmt.Sprintf("cup: LeaveNode of dead %v", victim))
	}
	s.Router.Dynamic = true
	// Collect the victim's channel peers before the overlay re-knits: the
	// nodes that list it (they routed through it) AND the nodes it listed
	// (it queried them, so they hold its interest bits). Neighbor
	// relations may be asymmetric (Kademlia buckets), so neither set
	// alone is enough. Concat copies: the overlay's own slice is only
	// valid until Leave edits it.
	affected := slices.Concat(s.reverseNeighbors()[victim], s.Ov.Neighbors(victim))
	heir := s.dyn.Leave(victim)
	s.departed++
	s.Router.Invalidate()
	s.redistributeLocal(victim)
	s.patchNeighborhood(s.reverseNeighbors(), append(affected, heir))
	s.emitMembership(EvNodeLeft, victim)
	return heir
}

// emitMembership publishes a §2.9 membership event to the run's observer,
// the one its nodes emit to.
func (s *Simulation) emitMembership(kind EventKind, id overlay.NodeID) {
	if s.env.obs != nil {
		s.env.obs.OnEvent(Event{Kind: kind, Time: s.Sched.Now(), Node: id, Peer: overlay.NoNode})
	}
}

// reverseNeighbors builds the reverse adjacency of the current overlay in
// one sweep: for each node, the alive nodes that list it as a neighbor.
// Churn handlers compute it once per membership event and share it, so
// patching stays O(n·degree) per event rather than per patched node.
func (s *Simulation) reverseNeighbors() map[overlay.NodeID][]overlay.NodeID {
	rev := make(map[overlay.NodeID][]overlay.NodeID, len(s.Nodes))
	for m := range s.Nodes {
		mm := overlay.NodeID(m)
		if !s.NodeAlive(mm) {
			continue
		}
		for _, nb := range s.Ov.Neighbors(mm) {
			rev[nb] = append(rev[nb], mm)
		}
	}
	return rev
}

// handOverLocal moves the entries of from's local directory whose keys
// now belong to to (after a membership change).
func (s *Simulation) handOverLocal(from, to overlay.NodeID) {
	dir := s.Nodes[from].LocalDirectory()
	for _, k := range dir.Keys() {
		if s.Ov.Owner(k) != to {
			continue
		}
		for _, e := range dir.All(k) {
			s.Nodes[to].InstallLocal(e)
			s.Nodes[from].RemoveLocal(k, e.Replica)
		}
	}
}

// redistributeLocal moves every local entry of a departed node to its
// key's current authority. On the CAN every key lands on the zone heir;
// in the XOR space each key goes to its own new closest node.
func (s *Simulation) redistributeLocal(from overlay.NodeID) {
	dir := s.Nodes[from].LocalDirectory()
	for _, k := range dir.Keys() {
		to := s.Ov.Owner(k)
		for _, e := range dir.All(k) {
			s.Nodes[to].InstallLocal(e)
		}
		dir.RemoveKey(k)
	}
}

// patchNeighborhood re-syncs interest bit vectors with current channel
// peers for the affected nodes (§2.9: "the bit vector patching is a local
// operation that affects only each individual node"). A node's channel
// peers are its own routing neighbors (it queries them) plus the nodes
// that route through it per rev (they query it, so their interest bits
// live here). The two sets coincide on symmetric overlays (CAN); on
// Kademlia's directed buckets the union keeps live subscriptions from
// asymmetric queriers from being patched away — PatchNeighbors drops
// bits of any peer not listed.
func (s *Simulation) patchNeighborhood(rev map[overlay.NodeID][]overlay.NodeID, nodes []overlay.NodeID) {
	seen := make(map[overlay.NodeID]bool, len(nodes))
	for _, id := range nodes {
		if seen[id] || !s.NodeAlive(id) {
			continue
		}
		seen[id] = true
		peers := append(append([]overlay.NodeID{}, s.Ov.Neighbors(id)...), rev[id]...)
		s.Nodes[id].PatchNeighbors(peers)
	}
}
