package cup

import (
	"fmt"

	"cup/internal/cache"
	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// LocalClient is the sentinel "neighbor" for queries posted by clients
// attached directly to a node.
const LocalClient = overlay.NoNode

// nodeSet is a compact sorted set of neighbor IDs — the representation of
// the paper's per-key bit vectors. Neighbor sets are small (CAN ~2d,
// Chord/Kademlia ~log n), so a sorted slice beats a map on both footprint
// (~100 bytes per key at million-node scale instead of one map header +
// buckets per vector) and iteration: walking the slice IS the
// deterministic ascending order that the map representation had to
// re-sort into on every push.
type nodeSet []overlay.NodeID

// search returns the position of id, or its insertion point.
func (s nodeSet) search(id overlay.NodeID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (s nodeSet) has(id overlay.NodeID) bool {
	i := s.search(id)
	return i < len(s) && s[i] == id
}

func (s *nodeSet) add(id overlay.NodeID) {
	v := *s
	i := v.search(id)
	if i < len(v) && v[i] == id {
		return
	}
	v = append(v, 0)
	copy(v[i+1:], v[i:])
	v[i] = id
	*s = v
}

func (s *nodeSet) remove(id overlay.NodeID) {
	v := *s
	i := v.search(id)
	if i == len(v) || v[i] != id {
		return
	}
	*s = append(v[:i], v[i+1:]...)
}

// intersect drops every member not present in alive, in place.
func (s *nodeSet) intersect(alive nodeSet) {
	v := *s
	keep := v[:0]
	for _, m := range v {
		if alive.has(m) {
			keep = append(keep, m)
		}
	}
	*s = keep
}

// routeEntry records one outstanding standard-caching query: the token it
// travels under, the neighbor (or LocalClient) its response must retrace
// to, and — for locally issued queries — when the client posted it, so
// the answer latency is exact even when several local queries for one key
// overlap (each query keys its own issue time on its token).
type routeEntry struct {
	qid      uint64
	dest     overlay.NodeID
	issuedAt sim.Time
}

// keyState is one node's record for one key (§2.3): the cached index
// entries, the Pending-First-Update flag, the interest bit vector and the
// popularity measure. It lives in its owner's slab (state.go); every query
// and update for the key at the node touches exactly this record. The
// fields a hit and a hop read come first, so they share a cache line; the
// size is 152 bytes.
type keyState struct {
	// hop caches the upstream next hop for the key, valid while hopEpoch
	// equals the router's topology epoch (zero: never resolved). See
	// nodeEnv.nextHop.
	hop      overlay.NodeID
	hopEpoch uint32
	// pendingLocal counts open local client connections awaiting an answer.
	pendingLocal int32
	// queries counts queries received since the last popularity reset —
	// the paper's popularity measure.
	queries int32
	// dist is the node's last-observed hop distance from the authority.
	dist int32
	// kid names the key in the owner's intern table; next is the slab
	// handle of the node's next key state, -1 at the end of its list.
	kid  KeyID
	next int32
	// pfu is the Pending-First-Update flag: set while a query for the key
	// is in flight upstream; coalesces further queries.
	pfu bool
	// everHeld marks that entries for the key existed at some point, to
	// classify freshness vs first-time misses.
	everHeld bool
	// justifyPending/justifyDeadline track the most recent proactive
	// update applied here, for §3.1 justified-update accounting.
	justifyPending bool
	// shared marks entries as shipped: a view of the set has left the
	// node — in a message, to a waiting client, into a live hit view — so
	// the set is immutable and the next write copies it (apply).
	shared bool
	// idle is the key's cut-off policy state (policy.Policy.Keep): the
	// windowed policies count consecutive idle updates in it.
	idle int32
	// watchReplica designates the replica whose updates trigger cut-off
	// decisions under replica-independent cut-off; -1 until first seen.
	watchReplica int32
	// entries are the index entries cached from queries and updates
	// (§2.1), edited in place until shared. An authority's own keys live
	// in Node.local.
	entries cache.Set
	// pendingChildren are neighbors whose forwarded query awaits our
	// response (transient, distinct from long-term interest).
	pendingChildren nodeSet
	// interest is the interest bit vector: neighbors to push updates to.
	interest nodeSet
	// routeBack holds the outstanding per-query tokens and the neighbor
	// each response must retrace to — standard caching's open
	// connections. Unused in CUP mode, where coalescing replaces it.
	routeBack       []routeEntry
	justifyDeadline sim.Time
	// issuedAt records when the oldest still-waiting local client query
	// was posted, so EvQueryAnswered can carry the answer latency under
	// CUP coalescing. Standard caching keys issue times per query on the
	// routeBack entry instead.
	issuedAt sim.Time
}

// nodeEnv is what the nodes of one owner share, and where their per-key
// state lives. An owner is whatever serializes handler calls: a Simulation
// — one copy per run, not per node — or a single live peer, which like a
// test fixture is simply an owner with one node.
type nodeEnv struct {
	cfg    Config
	router Router
	// topo is router when it is an *OverlayRouter — the one router whose
	// topology epoch is known, so the one next hops are cached against.
	topo *OverlayRouter
	// now supplies virtual (or real) time.
	now func() sim.Time
	// obs, when set, receives the protocol-level event stream (query
	// issued/answered, update pushed, cut-off fired) — the same observer
	// type on both transports, so their streams compare.
	obs Observer
	// acts is the reusable buffer every handler of this owner builds its
	// result in: a handler's returned slice aliases it and is valid until
	// the owner's next handler call. out is the update its sends carry:
	// every send of one result carries the same update, so the actions
	// point at this one copy and a transport copies it once, into what it
	// puts in flight. It is allocated by the owner's first response or
	// push (update), so an owner that sends none holds none.
	acts []Action
	out  *Update
	// keys, pool and index hold every key state of the owner's nodes
	// (state.go). Nothing is allocated until the first key.
	keys  keyTable
	pool  statePool
	index stateIndex
	// c is the owner's cost accounting (§3.3), counted by the handler
	// that sees each event: a query, a hop, an update's fate.
	c metrics.Counters
}

func newNodeEnv(cfg Config, router Router, now func() sim.Time) *nodeEnv {
	if cfg.Policy == nil {
		panic("cup: Config.Policy must be set (use Defaults())")
	}
	if router == nil {
		panic("cup: router is required")
	}
	if now == nil {
		panic("cup: clock is required")
	}
	topo, _ := router.(*OverlayRouter)
	return &nodeEnv{cfg: cfg, router: router, topo: topo, now: now}
}

// node initializes nd, a zeroed slot, as the owner's node id, setting the
// four fields whose zero is not their start. A node's states are filed
// under its id, so the ids of one owner's nodes must be distinct.
func (env *nodeEnv) node(nd *Node, id overlay.NodeID) *Node {
	nd.id, nd.env, nd.head, nd.capacityFraction = id, env, -1, -1
	return nd
}

// result publishes acts — built on the owner's buffer — as a handler's
// return value, keeping the (possibly grown) buffer for the next call.
func (env *nodeEnv) result(acts []Action) []Action {
	if len(acts) == 0 {
		return nil
	}
	env.acts = acts[:0]
	return acts
}

// update returns the owner's out update, for a handler to fill and its
// sends to carry.
func (env *nodeEnv) update() *Update {
	if env.out == nil {
		env.out = new(Update) // once per owner
	}
	return env.out
}

// one starts a single-action handler result on the owner's buffer: one
// action of the given kind for ks's key, every other field zero, for the
// handler to complete in place and return. (Filling the slot where it
// lies, not appending a literal, keeps a hit from copying the 72-byte
// Action twice.)
func (env *nodeEnv) one(kind ActionKind, ks *keyState) []Action {
	if cap(env.acts) == 0 {
		env.acts = make([]Action, 0, 4) // once per owner
	}
	acts := env.acts[:1]
	acts[0] = Action{}
	acts[0].Kind, acts[0].Key, acts[0].kid = kind, env.key(ks), ks.kid
	return acts
}

// Node is the CUP protocol state machine for one peer. It is not safe for
// concurrent use; the live runtime serializes access per node. Handlers
// return their actions in a buffer shared with the other nodes of the same
// owner (see nodeEnv): a result is valid until the owner's next handler
// call. A Node is identity, owner, local directory and capacity; the cost
// counters live in the owner, and so does everything per key, found by
// (node, KeyID).
type Node struct {
	id overlay.NodeID
	// head is the slab handle of the node's most recent key state, -1
	// while it has none; the states thread a list from it.
	head int32
	env  *nodeEnv

	// local is the authority-owned local index directory, disjoint from
	// the cached entries by construction (authorities never cache their
	// own keys).
	local cache.Store

	qidSeq uint64

	// capacityFraction < 0 means full outgoing capacity; otherwise the
	// node proactively forwards only this fraction of the updates it
	// receives (§3.7's reduced capacity c). Responses always flow.
	capacityFraction float64
	capacityCredit   float64
}

// NewNode constructs a node that is its own owner (a live peer, a test
// fixture). now supplies virtual (or real) time; router resolves upstream
// next hops.
func NewNode(id overlay.NodeID, cfg Config, router Router, now func() sim.Time) *Node {
	return newNodeEnv(cfg, router, now).node(new(Node), id)
}

// ID returns the node's overlay identifier.
func (n *Node) ID() overlay.NodeID { return n.id }

// SetObserver installs (or, with nil, removes) the event observer of the
// node's owner — every node of a simulation emits to the one observer.
// The transport owns the call; live deployments must pass an observer that
// is safe for concurrent use across peers.
func (n *Node) SetObserver(o Observer) { n.env.obs = o }

// now reads the owner's clock.
func (n *Node) now() sim.Time { return n.env.now() }

// key returns the key ks is the record of.
func (env *nodeEnv) key(ks *keyState) overlay.Key { return env.keys.names[ks.kid] }

// emit publishes one event with this node's identity and clock stamped in.
// The owner must have an observer: every call site checks n.env.obs before
// it builds the event, so an unobserved run builds none.
func (n *Node) emit(e Event) { n.env.emit(n.id, e) }

// emit publishes one event of node id, stamped with the owner's clock; see
// Node.emit.
func (env *nodeEnv) emit(id overlay.NodeID, e Event) {
	e.Time = env.now()
	e.Node = id
	env.obs.OnEvent(e)
}

// Counters returns the cost counters of the node's owner (§3.3): the
// node's own for one built by NewNode, the whole run's in a simulation.
func (n *Node) Counters() metrics.Counters { return n.env.c }

// SetCapacity sets the outgoing update capacity as a fraction of received
// updates (0 ≤ c ≤ 1); negative restores full capacity.
func (n *Node) SetCapacity(c float64) {
	n.capacityFraction = c
	if c >= 0 && n.capacityCredit > 1 {
		n.capacityCredit = 1
	}
}

// Capacity returns the current capacity fraction (negative = unlimited).
func (n *Node) Capacity() float64 { return n.capacityFraction }

// InstallLocal installs an index entry into the local index directory;
// used by the transport when a replica registers with its authority.
func (n *Node) InstallLocal(e cache.Entry) { n.local.Put(e) }

// RemoveLocal deletes a replica's entry from the local directory.
func (n *Node) RemoveLocal(k overlay.Key, replica int) { n.local.Remove(k, replica) }

// LocalDirectory exposes the authority-owned entries (read-only use).
func (n *Node) LocalDirectory() *cache.Store { return &n.local }

// Cached returns a copy of every index entry the node has cached for k,
// fresh or stale, sorted by replica.
func (n *Node) Cached(k overlay.Key) []cache.Entry {
	return append([]cache.Entry(nil), n.read(k).entries...)
}

// IsAuthority reports whether the node owns k's index entries. A node is
// an authority exactly when routing terminates at it. It asks the router
// afresh; handlers, which hold the key's state, go through nextHop.
func (n *Node) IsAuthority(k overlay.Key) bool {
	return n.env.router.NextHopTowardOwner(n.id, k) == n.id
}

// nextHop returns node id's neighbor on the path toward the authority of
// ks's key (id itself at the authority), resolving it once per key and
// topology epoch and caching it on the key state the handler already holds.
// Only an OverlayRouter's answers are cached — it alone can say when the
// topology changed — and not while it is Dynamic.
func (env *nodeEnv) nextHop(id overlay.NodeID, ks *keyState) overlay.NodeID {
	r := env.topo
	if r == nil || r.Dynamic {
		return env.router.NextHopTowardOwner(id, env.key(ks))
	}
	epoch := r.epoch.Load()
	if ks.hopEpoch != epoch {
		ks.hop, ks.hopEpoch = r.NextHopTowardOwner(id, env.key(ks)), epoch
	}
	return ks.hop
}

// read returns a copy of the node's bookkeeping for k, the record of an
// untouched key when it holds none. The readers built on it never create
// state, and leave the intern table as it was.
func (n *Node) read(k overlay.Key) keyState {
	if ks := n.peekKey(k); ks != nil {
		return *ks
	}
	return keyState{dist: -1}
}

// HasFreshAnswer reports whether a local query for k would hit instantly.
func (n *Node) HasFreshAnswer(k overlay.Key) bool {
	return n.IsAuthority(k) || n.read(k).entries.Fresh(n.now()) != nil
}

// PendingFirstUpdate reports the PFU flag for k.
func (n *Node) PendingFirstUpdate(k overlay.Key) bool { return n.read(k).pfu }

// EverHeld reports whether the node ever cached entries for k (used to
// classify freshness vs first-time misses).
func (n *Node) EverHeld(k overlay.Key) bool { return n.read(k).everHeld }

// Popularity returns the queries-since-last-update measure for k.
func (n *Node) Popularity(k overlay.Key) int { return int(n.read(k).queries) }

// InterestedNeighbors returns the neighbors whose interest bit for k is
// set, sorted for determinism.
func (n *Node) InterestedNeighbors(k overlay.Key) []overlay.NodeID {
	return append([]overlay.NodeID(nil), n.read(k).interest...)
}

// Distance returns the node's last observed distance from k's authority
// (-1 when unknown).
func (n *Node) Distance(k overlay.Key) int {
	if n.IsAuthority(k) {
		return 0
	}
	return int(n.read(k).dist)
}

// settleJustify closes ks's pending proactive update against a query that
// arrived at time at.
func (env *nodeEnv) settleJustify(ks *keyState, at sim.Time) {
	if at < ks.justifyDeadline {
		env.c.JustifiedUpdates++
	} else {
		env.c.UnjustifiedUpdates++
	}
	ks.justifyPending = false
}

// ClientAnswer returns the entries a local client's query for k would be
// answered with at this instant — the authority's fresh local directory,
// a fresh cached set elsewhere (§2.5 case 1) — or nil when it would miss
// and travel. It records nothing: a transport that serves clients from a
// published copy of this answer (the live hit view) accounts for them
// through CreditClientHits. The result is a read-only view of an entry set
// marked shipped (see MarkShipped) and may be handed to another goroutine.
func (n *Node) ClientAnswer(k overlay.Key) []cache.Entry {
	if n.IsAuthority(k) {
		return n.local.Fresh(k, n.now())
	}
	ks := n.peekKey(k)
	if ks == nil {
		return nil
	}
	ks.shared = true
	return ks.entries.Fresh(n.now())
}

// MarkShipped records that a view of the node's cached set for k has left
// the node: the transport handed an ActDeliverLocal's entries to a waiting
// client. The set is immutable from here on, and the next write copies it.
func (n *Node) MarkShipped(k overlay.Key) {
	if ks := n.peekKey(k); ks != nil {
		ks.shared = true
	}
}

// CreditClientHits records hits local client queries for k that the
// transport answered from a published ClientAnswer, the earliest at time
// first: exactly what that many HandleQuery hits would have left behind —
// the counted queries and hits, the popularity measure and the §3.1
// settlement — minus the events, which the transport emits where it
// serves. The transport credits before any handler for k runs, so a
// cut-off decision sees every query.
func (n *Node) CreditClientHits(k overlay.Key, hits int, first sim.Time) {
	if hits <= 0 {
		return
	}
	ks := n.stateKey(k)
	n.env.c.Queries += uint64(hits)
	n.env.c.Hits += uint64(hits)
	ks.queries += int32(hits)
	if ks.justifyPending {
		n.env.settleJustify(ks, first)
	}
}

// HandleQuery processes a search query for k arriving from a neighbor, or
// from a local client when from == LocalClient. It implements §2.5. qid is
// the standard-caching per-query token (zero for locally posted queries
// and for everything in CUP mode, where coalescing replaces it).
//
// Like every handler, it builds its result in a buffer shared by the
// node's owner (the simulation driving it, or the live peer):
// the returned slice is valid until the next handler call on that owner;
// copy what must outlive it. Entries carried by an update are read-only
// views of entry sets the handler marked shipped, and may be kept. Those
// of an ActDeliverLocal are a view of the node's own set, valid until the
// owner's next handler call unless the transport marks the set shipped
// (MarkShipped) before it hands them on.
//
// The exported handlers intern the key once per message — a live peer's
// one hashed lookup; the simulator calls the unexported forms with the
// key's state in hand.
func (n *Node) HandleQuery(from overlay.NodeID, k overlay.Key, qid uint64) []Action {
	return n.env.handleQuery(n, n.id, n.stateKey(k), from, qid)
}

// handleQuery is HandleQuery at node n, whose id is id, for a caller
// already holding the key's state. It is the owner's, not the node's: a
// hit — the authority's aside — reads the key state and the owner and
// dereferences no field of n, so the node's memory is touched only off the
// hit path (the authority's directory, standard caching's query token).
// A local client's query is counted, and classified where it is answered
// or misses; a neighbor's is a query hop, miss cost (§3.3).
func (env *nodeEnv) handleQuery(n *Node, id overlay.NodeID, ks *keyState, from overlay.NodeID, qid uint64) []Action {
	// The popularity measure, and justified-update accounting: a pending
	// proactive update is justified by the first query arriving before its
	// deadline (§3.1).
	ks.queries++
	now := env.now()
	if ks.justifyPending {
		env.settleJustify(ks, now)
	}

	if from != LocalClient {
		env.c.QueryHops++
	} else {
		env.c.Queries++
		if env.obs != nil {
			env.emit(id, Event{Kind: EvQueryIssued, Peer: LocalClient, Key: env.key(ks)})
		}
	}

	// Interest registration: CUP nodes remember which neighbors want
	// updates for k, in every case of §2.5.
	if from != LocalClient && env.cfg.Mode == ModeCUP {
		ks.interest.add(from) // a neighbor's first query for the key
	}

	// Case 1a: we are the authority — answer from the local directory.
	next := env.nextHop(id, ks)
	if next == id {
		return env.answer(id, ks, from, n.local.Fresh(env.key(ks), now), qid)
	}

	// Case 1b: fresh entries cached — answer from cache. Under standard
	// caching only the node's own clients are served from its cache
	// (client-side TTL caching); intermediate nodes never answer others'
	// queries — maintaining answer-capable intermediate caches is
	// precisely CUP's contribution.
	if env.cfg.Mode == ModeCUP || from == LocalClient {
		if fresh := ks.entries.Fresh(now); fresh != nil {
			return env.answer(id, ks, from, fresh, qid)
		}
	}

	// A local query with no fresh answer is a miss, classified by the
	// flags it found on arrival.
	if from == LocalClient {
		if ks.pfu {
			env.c.Coalesced++
		}
		if ks.everHeld {
			env.c.FreshnessMisses++
		} else {
			env.c.FirstTimeMisses++
		}
	}

	// Standard caching: no coalescing — every query travels individually
	// and keeps a per-query "open connection" for its response (§4's
	// open-connection problem, which CUP's query channel eliminates).
	if env.cfg.Mode == ModeStandard {
		if qid == 0 {
			n.qidSeq++
			qid = uint64(uint32(id+1))<<32 | n.qidSeq
		}
		ks.routeBack = append(ks.routeBack, routeEntry{qid: qid, dest: from, issuedAt: now}) // miss path
		acts := env.one(ActSendQuery, ks)
		acts[0].To, acts[0].QueryID = next, qid
		return acts
	}

	// Cases 2 and 3 (CUP): no fresh answer; register the asker, coalesce.
	if from == LocalClient {
		if ks.pendingLocal == 0 {
			ks.issuedAt = now
		}
		ks.pendingLocal++
	} else {
		ks.pendingChildren.add(from) // miss path
	}
	if ks.pfu {
		// Coalesced into the in-flight query. Peer carries the querier so
		// observers can split local coalescing (which mirrors the
		// Coalesced counter) from neighbor coalescing.
		if env.obs != nil {
			env.emit(id, Event{Kind: EvQueryCoalesced, Peer: from, Key: env.key(ks)})
		}
		return nil
	}
	ks.pfu = true
	acts := env.one(ActSendQuery, ks)
	acts[0].To = next
	return acts
}

// answer builds node id's answer from entries: a local delivery — a hit —
// or the first-time-update response for a neighbor's fresh hit. The
// response carries our distance+1 so the receiver learns its depth, and a
// view of the set it answers from, which is shipped with it.
func (env *nodeEnv) answer(id overlay.NodeID, ks *keyState, from overlay.NodeID, entries []cache.Entry, qid uint64) []Action {
	if from == LocalClient {
		env.c.Hits++
		if env.obs != nil {
			env.emit(id, Event{Kind: EvQueryAnswered, Peer: LocalClient, Key: env.key(ks), Entries: len(entries)})
		}
		acts := env.one(ActDeliverLocal, ks)
		acts[0].Entries = entries
		return acts
	}
	ks.shared = true
	acts := env.one(ActSendUpdate, ks)
	depth := int(ks.dist) + 1
	if env.nextHop(id, ks) == id {
		depth = 1
	}
	out := env.update()
	*out = Update{
		Key:     acts[0].Key,
		Type:    FirstTime,
		Entries: entries,
		Replica: -1,
		Depth:   depth,
		Expires: cache.Set(entries).MaxExpiry(),
		QueryID: qid,
	}
	acts[0].To, acts[0].Update = from, out
	return acts
}

// handleDirectResponse retraces a standard-caching response along its
// query's recorded path; the issuing node caches the answer (client-side
// TTL caching with remaining lifetime), intermediates pass it through.
func (n *Node) handleDirectResponse(ks *keyState, u *Update) []Action {
	idx := -1
	for i := range ks.routeBack {
		if ks.routeBack[i].qid == u.QueryID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil // duplicate or forgotten query token
	}
	re := ks.routeBack[idx]
	ks.routeBack = append(ks.routeBack[:idx], ks.routeBack[idx+1:]...)
	ks.dist = int32(u.Depth)
	fresh := cache.Set(u.Entries).Fresh(n.now())
	if re.dest == LocalClient {
		if fresh != nil {
			n.apply(ks, &Update{Key: u.Key, Type: FirstTime, Entries: fresh})
		}
		if n.env.obs != nil {
			n.emit(Event{Kind: EvQueryAnswered, Peer: LocalClient, Key: u.Key,
				Entries: len(fresh), Latency: n.now().Sub(re.issuedAt)})
		}
		acts := n.env.one(ActDeliverLocal, ks)
		acts[0].Entries = fresh
		return acts
	}
	acts := n.env.one(ActSendUpdate, ks)
	out := n.env.update()
	*out = *u
	out.Depth, out.Entries = u.Depth+1, fresh
	acts[0].To, acts[0].Update = re.dest, out
	return acts
}

// ReplicaEvent applies a replica's birth (Append), re-registration
// (Refresh) or deletion (Delete) at its authority n — installing or
// removing the local directory entry — and originates the update
// announcing it. An Append of a replica the directory already holds is
// its re-registration, and goes out as a Refresh: the authority, which
// serializes a key's events, labels them, and not the caller. Either way
// the update is good for one lifetime: a birth or refresh installs an
// entry expiring then, and a Delete stays justified as long. The result
// follows the handler-result contract (see HandleQuery).
func (n *Node) ReplicaEvent(ty UpdateType, k overlay.Key, replica int, addr string, lifetime sim.Duration) []Action {
	u := Update{Key: k, Type: ty, Replica: replica, Expires: n.now().Add(lifetime)}
	e := cache.Entry{Key: k, Replica: replica, Addr: addr, Expires: u.Expires}
	if ty == Delete {
		n.RemoveLocal(k, replica)
	} else {
		if n.local.Put(e) && ty == Append {
			u.Type = Refresh
		}
		u.Lifetime = lifetime
	}
	ks := n.originating(k)
	if ks == nil {
		return nil
	}
	if ty != Delete {
		u.Entries = []cache.Entry{e} // the pushed update's sends share it
	}
	return n.push(ks, &u)
}

// originateUpdate is called at the authority once a replica event (birth,
// refresh, deletion) has changed the local directory; it counts the
// update and propagates it to interested neighbors per §2.6. The result
// follows the handler-result contract (see HandleQuery).
func (n *Node) originateUpdate(u Update) []Action {
	if ks := n.originating(u.Key); ks != nil {
		return n.push(ks, &u)
	}
	return nil
}

// originating counts an update originated at k's authority n and returns
// k's state when §2.6 has anyone to push it to, nil otherwise.
func (n *Node) originating(k overlay.Key) *keyState {
	if !n.IsAuthority(k) {
		panic(fmt.Sprintf("cup: %v originating update for foreign key %q", n.id, k))
	}
	n.env.c.UpdatesOriginated++
	if n.env.cfg.Mode != ModeCUP {
		return nil // standard caching never propagates
	}
	// Interest lives on the key's state: a key nobody has asked this node
	// about has no one to push to, and gets no state for being published.
	return n.peekKey(k)
}

// push sends an update originated at the authority to its interested
// neighbors.
func (n *Node) push(ks *keyState, u *Update) []Action {
	u.Depth = 1
	return n.env.result(n.pushProactive(n.env.acts[:0], ks, u, 0, nil))
}

// HandleUpdate processes an update for u.Key arriving from upstream
// neighbor `from`, implementing the three cases of §2.6. The result
// follows the handler-result contract (see HandleQuery).
func (n *Node) HandleUpdate(from overlay.NodeID, u Update) []Action {
	return n.handleUpdate(n.stateKey(u.Key), from, &u)
}

// handleUpdate is HandleUpdate for a caller already holding u.Key's state.
// u is read in place — the simulator passes the message's slot — and
// neither kept nor written.
func (n *Node) handleUpdate(ks *keyState, from overlay.NodeID, u *Update) []Action {
	// An update retracing one query's path or reaching a node awaiting a
	// response is miss cost (§3.3); any other is a proactive push.
	if u.QueryID != 0 || ks.pfu {
		n.env.c.ResponseHops++
	} else {
		n.env.c.UpdateHops++
	}
	// Per-query responses (standard caching) bypass the CUP machinery and
	// retrace their query's path.
	if u.QueryID != 0 {
		return n.handleDirectResponse(ks, u)
	}
	now := n.now()

	// Case 3: the update expired in flight — do not apply, do not push.
	// Deletes are always applied: removing a stale entry is still correct.
	if u.Type != Delete && u.Expires <= now {
		n.env.c.ExpiredUpdates++
		// An expired first-time update still terminates the pending
		// query: the asker must re-issue rather than wait forever.
		if ks.pfu {
			return n.respondPending(ks, u, nil)
		}
		return nil
	}

	// Case 1: Pending-First-Update set — this update answers our query.
	if ks.pfu {
		// Whether this node stores the answer depends on its depth and
		// role (§3.3): pure forwarders beyond the push level — and all
		// forwarders under standard caching — pass the response through
		// without building a cache entry.
		if n.env.cfg.CachesAtDepth(u.Depth, ks.pendingLocal > 0) {
			n.apply(ks, u)
			n.resetPopularity(ks, u)
			ks.dist = int32(u.Depth)
			// Answer with the full fresh set now cached (the update may
			// have been a single-entry refresh completing our answer).
			return n.respondPending(ks, u, ks.entries.Fresh(now))
		}
		ks.dist = int32(u.Depth)
		n.resetPopularity(ks, u)
		return n.respondPending(ks, u, cache.Set(u.Entries).Fresh(now))
	}

	// Case 2: no pending query.
	ks.dist = int32(u.Depth)
	if len(ks.interest) == 0 {
		// No downstream interest: consult the cut-off policy. Under
		// replica-independent cut-off only the watched replica's updates
		// trigger the decision (§3.6).
		if n.shouldEvaluate(ks, u) {
			keep := n.env.cfg.Policy.Keep(int(ks.queries), u.Depth, &ks.idle)
			n.resetPopularity(ks, u)
			if !keep {
				if n.env.obs != nil {
					n.emit(Event{Kind: EvCutoffFired, Peer: from, Key: u.Key})
				}
				acts := n.env.one(ActSendClearBit, ks)
				acts[0].To = from
				return acts
			}
		}
		n.apply(ks, u)
		n.markJustifyPending(ks, u)
		return nil
	}

	// Downstream interest exists: apply and push to interested neighbors.
	if n.shouldEvaluate(ks, u) {
		n.resetPopularity(ks, u)
	}
	n.apply(ks, u)
	n.markJustifyPending(ks, u)
	return n.env.result(n.pushProactive(n.env.acts[:0], ks, u, u.Depth, nil))
}

// respondPending clears the PFU flag and fans the response out to pending
// children, waiting local clients, and (proactively) interested neighbors.
// entries may be a view of the node's own set, which ships with any send.
func (n *Node) respondPending(ks *keyState, u *Update, entries []cache.Entry) []Action {
	ks.pfu = false
	acts := n.env.acts[:0]
	k, depth := u.Key, u.Depth
	if ks.pendingLocal > 0 {
		if n.env.obs != nil {
			n.emit(Event{Kind: EvQueryAnswered, Peer: LocalClient, Key: k,
				Entries: len(entries), Latency: n.now().Sub(ks.issuedAt)})
		}
		acts = append(acts, Action{Kind: ActDeliverLocal, Key: k, kid: ks.kid, Entries: entries})
		ks.pendingLocal = 0
	}
	resp := n.env.update()
	*resp = Update{
		Key:     k,
		Type:    FirstTime,
		Entries: entries,
		Replica: -1,
		Depth:   depth + 1,
		Expires: cache.Set(entries).MaxExpiry(),
	}
	// Pending children get the response unconditionally (it is their
	// query's answer — miss cost, exempt from capacity limits). The set
	// is already sorted ascending, so the fan-out is deterministic.
	children := ks.pendingChildren
	for _, m := range children {
		acts = append(acts, Action{Kind: ActSendUpdate, To: m, Key: k, kid: ks.kid, Update: resp})
	}
	ks.pendingChildren = children[:0]
	// Interested-but-not-pending neighbors get a proactive push of the
	// same fresh set, subject to push level and capacity.
	if n.env.cfg.Mode == ModeCUP && entries != nil {
		acts = n.pushProactive(acts, ks, resp, depth, children)
	}
	// Sends follow the local delivery: the last action says whether any
	// response left with the entries.
	if entries != nil && len(acts) > 0 && acts[len(acts)-1].Kind == ActSendUpdate {
		ks.shared = true
	}
	return n.env.result(acts)
}

// shouldEvaluate reports whether this update triggers the cut-off decision
// and popularity reset.
func (n *Node) shouldEvaluate(ks *keyState, u *Update) bool {
	if !n.env.cfg.ReplicaIndependentCutoff {
		return true // naive: every update triggers (§3.6's buggy variant)
	}
	if u.Replica < 0 {
		return true // first-time responses always reset
	}
	if ks.watchReplica < 0 {
		ks.watchReplica = int32(u.Replica)
	}
	return u.Replica == int(ks.watchReplica)
}

// resetPopularity zeroes the queries-since-last-update measure.
func (n *Node) resetPopularity(ks *keyState, u *Update) {
	ks.queries = 0
	// An update replacing the watched replica's entry re-designates on
	// delete: if the watched replica is deleted, watch the next one seen.
	if u.Type == Delete && u.Replica == int(ks.watchReplica) {
		ks.watchReplica = -1
	}
}

// markJustifyPending records a proactive update for §3.1 accounting; any
// query arriving before the update's expiry justifies it.
func (n *Node) markJustifyPending(ks *keyState, u *Update) {
	if u.Type == FirstTime {
		return // first-time updates are justified by construction
	}
	if ks.justifyPending {
		// Previous proactive update was never matched by a query.
		n.env.c.UnjustifiedUpdates++
	}
	ks.justifyPending = true
	ks.justifyDeadline = u.Expires
}

// apply folds an update into the cached index entries (never into the
// local directory — those change only via replica events).
func (n *Node) apply(ks *keyState, u *Update) {
	// The update's payload may be a view of the sender's set, so it is
	// copied from, never kept. The node's own set is edited in place until
	// a view of it has shipped; a shipped set is copied once, and the copy
	// is the node's alone again.
	if ks.shared && u.Type != FirstTime {
		ks.entries = ks.entries.Clone()
	}
	ks.shared = false
	switch u.Type {
	case FirstTime:
		ks.entries = cache.NewSet(u.Key, u.Entries)
	case Refresh, Append:
		for _, e := range u.Entries {
			// A pushed refresh/append restarts the entry's lifetime from
			// local receipt (§2.1's local-timestamp model), so chains of
			// refreshed caches never suffer synchronized expiry.
			if u.Lifetime > 0 {
				e.Expires = n.now().Add(u.Lifetime)
			}
			ks.entries = ks.entries.Put(e)
		}
	case Delete:
		ks.entries = ks.entries.Delete(u.Replica)
	}
	if len(u.Entries) > 0 {
		ks.everHeld = true
	}
}

// pushProactive appends to acts a forward of u to every interested
// neighbor not in except, honoring the sender-side push level and the
// node's outgoing capacity. senderDepth is this node's distance from the
// authority (0 at the authority). The forward is u copied into the
// owner's out update, which respondPending passes as u itself.
func (n *Node) pushProactive(acts []Action, ks *keyState, u *Update, senderDepth int, except nodeSet) []Action {
	if len(ks.interest) == 0 {
		return acts
	}
	// Sender-side push level (§3.3): do not propagate beyond level p.
	if n.env.cfg.PushLevel >= 0 && senderDepth+1 > n.env.cfg.PushLevel {
		return acts
	}
	// Outgoing capacity (§3.7): a node at reduced capacity c forwards only
	// a c-fraction of the updates it receives. Deterministic thinning via
	// a credit counter keeps runs reproducible.
	if n.capacityFraction >= 0 {
		n.capacityCredit += n.capacityFraction
		if n.capacityCredit < 1 {
			n.env.c.UpdatesDropped++
			return acts
		}
		n.capacityCredit--
	}
	fwd := n.env.update()
	*fwd = *u
	fwd.Depth = senderDepth + 1
	// The interest set is sorted ascending; iterating it directly is the
	// deterministic target order.
	for _, m := range ks.interest {
		if except.has(m) {
			continue
		}
		if n.env.obs != nil {
			n.emit(Event{Kind: EvUpdatePushed, Peer: m, Key: fwd.Key, Type: fwd.Type, Depth: fwd.Depth})
		}
		acts = append(acts, Action{Kind: ActSendUpdate, To: m, Key: fwd.Key, kid: ks.kid, Update: fwd})
	}
	return acts
}

// HandleClearBit processes a Clear-Bit control message from a downstream
// neighbor (§2.7): clear its interest bit; if our own popularity is low and
// no interest remains, propagate the clear-bit toward the authority. The
// result follows the handler-result contract (see HandleQuery). A clear-bit
// for a key the node holds no state for — nothing a correct peer sends —
// is dropped without creating any.
func (n *Node) HandleClearBit(from overlay.NodeID, k overlay.Key) []Action {
	return n.handleClearBit(n.peekKey(k), from, false)
}

// handleClearBit is HandleClearBit for a caller that has looked the key's
// state up (nil: the node holds none). A clear-bit that traveled alone is
// a clear-bit hop, overhead (§3.3); one carried by a query or update
// (§2.7 piggybacking, which only the simulator does) cost no hop.
func (n *Node) handleClearBit(ks *keyState, from overlay.NodeID, carried bool) []Action {
	if !carried {
		n.env.c.ClearBitHops++
	}
	if ks == nil {
		return nil
	}
	ks.interest.remove(from)
	ks.pendingChildren.remove(from)
	if len(ks.interest) > 0 || ks.queries > 0 || ks.pfu {
		return nil
	}
	next := n.env.nextHop(n.id, ks)
	if next == n.id {
		return nil // the root has no upstream to cut
	}
	if n.env.obs != nil {
		n.emit(Event{Kind: EvCutoffFired, Peer: next, Key: n.env.key(ks)})
	}
	acts := n.env.one(ActSendClearBit, ks)
	acts[0].To = next
	return acts
}

// PatchNeighbors reconciles per-key bit vectors after overlay membership
// changes (§2.9): interest and pending bits of vanished neighbors are
// dropped; entries themselves are kept and simply expire if orphaned.
func (n *Node) PatchNeighbors(current []overlay.NodeID) {
	alive := make(nodeSet, 0, len(current))
	for _, m := range current {
		alive.add(m)
	}
	n.eachState(func(ks *keyState) {
		ks.interest.intersect(alive)
		ks.pendingChildren.intersect(alive)
	})
}

// FlushExpired drops expired cached entries; transports may call it
// periodically to bound memory.
func (n *Node) FlushExpired() int {
	now, dropped := n.now(), 0
	n.eachState(func(ks *keyState) {
		var d int
		ks.entries, d = ks.entries.Expire(now)
		dropped += d
	})
	return dropped
}
