package cup

import (
	"context"
	"fmt"
	"math/rand"

	"cup/internal/cache"
	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/sim"

	// The overlay substrates self-register with the overlay registry;
	// blank imports make every kind buildable via Params.OverlayKind.
	_ "cup/internal/can"
	_ "cup/internal/chord"
	_ "cup/internal/kademlia"
)

// Params configures one simulated run, mirroring the paper's simulator
// inputs (§3.2): "the number of nodes in the overlay peer-to-peer network,
// the number of keys owned per node, the distribution of queries for keys,
// the distribution of query inter-arrival times, the number of replicas per
// key, and the lifetime of replicas".
type Params struct {
	// Nodes is the overlay size (the paper sweeps n = 2^k, k = 3..12).
	Nodes int
	// OverlayKind selects the substrate by its overlay-registry name:
	// "can" (default), "chord", or "kademlia". Any kind registered with
	// overlay.Register is accepted.
	OverlayKind string
	// Keys is the number of distinct keys queried (default 1; the paper's
	// tables report per-key behavior).
	Keys int
	// ZipfSkew skews key popularity when Keys > 1; 0 = uniform.
	ZipfSkew float64
	// Replicas is the number of replicas per key (Table 3 sweeps this).
	Replicas int
	// Lifetime is the replica lifetime (the paper uses 300 s); replicas
	// refresh their index entries exactly at expiration.
	Lifetime sim.Duration
	// HopDelay is the per-hop network latency (used when Latency is nil).
	HopDelay sim.Duration
	// Latency, when set, supplies heterogeneous per-link latencies (see
	// internal/netmodel); it overrides HopDelay for message deliveries.
	Latency LatencyModel
	// QueryRate is the Poisson arrival rate λ of queries for the whole
	// network, in queries per second.
	QueryRate float64
	// QueryStart/QueryDuration bound the querying window; the paper uses
	// 3000 s of querying.
	QueryStart    sim.Duration
	QueryDuration sim.Duration
	// Drain extends the run past the query window so in-flight traffic
	// and tree teardown complete.
	Drain sim.Duration
	// Config is the per-node protocol configuration.
	Config Config
	// RefreshPolicy applies the §3.6 authority-side overhead reductions
	// (refresh suppression and aggregation); zero value propagates every
	// replica refresh as a separate update, as in Table 3.
	RefreshPolicy RefreshPolicy
	// PiggybackClearBits models §2.7's piggybacking: a clear-bit rides
	// free on the next query or update sent to the same neighbor within
	// PiggybackWindow, costing a hop only when sent standalone. The
	// paper's own measurements keep this off ("This somewhat inflates the
	// overhead measure").
	PiggybackClearBits bool
	// PiggybackWindow is how long a clear-bit waits for a carrier before
	// traveling standalone (default 1 s).
	PiggybackWindow sim.Duration
	// Seed drives all randomness; identical Params give identical runs.
	Seed int64
	// Traffic generates the client query workload; nil uses the paper's
	// Poisson generator at QueryRate (bit-identical to the pre-Scenario
	// embedded loop). See traffic.go for the built-in generators.
	Traffic Traffic
	// Faults are scripted interventions (capacity loss, churn) expanded
	// against the transport-agnostic FaultSurface; see scenario.go.
	Faults []Fault
	// Observer, when set, receives the protocol event stream (see Event)
	// from the start: NewSimulation installs it as the run's one observer,
	// which every node emits to and which also carries the membership
	// events of §2.9 churn. Simulation.SetObserver installs one later. With
	// none, no node builds an event.
	Observer Observer
	// NoWorkload skips the scripted workload (replica births with
	// refresh-at-expiration loops, Poisson query arrivals): the run starts
	// idle and is driven interactively through PublishReplica and Lookup,
	// exactly like a live network. The façade's client API uses this.
	NoWorkload bool
}

// LatencyModel yields per-link one-way latencies (internal/netmodel
// implements several; the interface is redeclared here to keep the
// dependency arrow pointing outward).
type LatencyModel interface {
	Delay(from, to overlay.NodeID) sim.Duration
}

// delay returns the latency for one hop.
func (s *Simulation) delay(from, to overlay.NodeID) sim.Duration {
	if s.P.Latency != nil {
		return s.P.Latency.Delay(from, to)
	}
	return s.P.HopDelay
}

// WithDefaults fills unset fields with the paper's parameters from the
// shared defaults table (defaults.go) — the same table the live runtime's
// config defaulting consumes.
func (p Params) WithDefaults() Params {
	if p.Nodes == 0 {
		p.Nodes = DefaultNodes
	}
	if p.OverlayKind == "" {
		p.OverlayKind = DefaultOverlayKind
	}
	if p.Keys == 0 {
		p.Keys = DefaultKeys
	}
	if p.Replicas == 0 {
		p.Replicas = DefaultReplicas
	}
	if p.Lifetime == 0 {
		p.Lifetime = DefaultLifetime
	}
	if p.HopDelay == 0 {
		p.HopDelay = DefaultHopDelay
	}
	if p.QueryRate == 0 {
		p.QueryRate = DefaultQueryRate
	}
	if p.QueryStart == 0 {
		p.QueryStart = p.Lifetime
	}
	if p.QueryDuration == 0 {
		p.QueryDuration = DefaultQueryDuration
	}
	if p.Drain == 0 {
		p.Drain = p.Lifetime
	}
	if p.Config.Policy == nil {
		p.Config = Defaults()
	}
	if p.Seed == 0 {
		p.Seed = DefaultSeed
	}
	return p
}

// Result is the outcome of a run.
type Result struct {
	Params   Params
	Counters metrics.Counters
}

// Simulation is a fully wired discrete-event CUP deployment. Construct
// with NewSimulation, then Run (or drive the scheduler manually for
// fault-injection experiments). Its overlay, Ov, is the one every run of
// the same (kind, n, overlay seed) reads (overlay.Shared) until the run's
// first membership change, which swaps in a copy of its own (churn.go).
type Simulation struct {
	P      Params
	Sched  *sim.Scheduler
	Rng    *sim.Rand
	Ov     overlay.Overlay
	dyn    DynamicOverlay // Ov once it is the run's own (churn.go); nil until then
	Router *OverlayRouter
	Keys   []overlay.Key
	// C points at the run's cost counters, which the handlers count
	// into (nodeEnv.c); the driver adds the three fields only it can
	// count (see metrics.Counters).
	C *metrics.Counters

	// nodes holds every node of the run at a stable address, so a hop
	// finds its receiver by the id alone. It is the run's one index of
	// its nodes: Node and Size read it.
	nodes nodeSlab

	// env is the run's owner: every node it drives — the initial block
	// and churn joiners alike — shares its action buffer, intern table
	// and key-state slab. Keys[i] is interned as KeyID(i).
	env *nodeEnv

	keyPick func() overlay.Key
	pending map[pendKey][]sim.Time
	gates   map[overlay.NodeID]*refreshGate
	held    map[linkKey][]*heldClearBit
	lookups map[pendKey][]*lookupWaiter
	endTime sim.Time
	// msgs is the slab holding every message in flight, freeMsgs its
	// released slots; the scheduler carries a slot's index to deliver.
	msgs     []message
	freeMsgs []uint32
	// faultErr is the first scripted-fault failure (an intervention the
	// surface could not honor); RunContext, Settle, and Lookup surface it
	// instead of letting the run pass with the event silently dropped.
	faultErr error
	// departed counts departures (churn.go): while it is zero every node
	// of the run is a member, and NodeAlive need not ask the overlay.
	departed int
}

// SetObserver installs (or, with nil, removes) the run's observer: the one
// its nodes emit the protocol events to, and the one churn's membership
// events go to.
func (s *Simulation) SetObserver(o Observer) { s.env.obs = o }

// Observer returns the run's observer, nil while it has none.
func (s *Simulation) Observer() Observer { return s.env.obs }

// recordFaultErr stores the first fault failure; later ones are noise
// from the same root cause.
func (s *Simulation) recordFaultErr(err error) {
	if s.faultErr == nil {
		s.faultErr = err
	}
}

// lookupWaiter captures the answer of one interactive Lookup.
type lookupWaiter struct {
	done    bool
	entries []cache.Entry
}

type linkKey struct {
	from, to overlay.NodeID
}

// heldClearBit is a clear-bit waiting for a carrier message on its link.
type heldClearBit struct {
	kid  KeyID
	sent bool
}

// pendKey names the open client connections for one key at one node.
type pendKey struct {
	node overlay.NodeID
	kid  KeyID
}

// NewSimulation builds the overlay, nodes, replicas, workload, and hooks.
func NewSimulation(p Params) *Simulation {
	p = p.WithDefaults()
	s := &Simulation{
		P:       p,
		Sched:   sim.NewScheduler(),
		Rng:     sim.NewRand(p.Seed),
		pending: make(map[pendKey][]sim.Time),
		gates:   make(map[overlay.NodeID]*refreshGate),
		held:    make(map[linkKey][]*heldClearBit),
		lookups: make(map[pendKey][]*lookupWaiter),
	}
	s.Sched.Deliver = s.deliver
	if s.P.PiggybackWindow == 0 {
		s.P.PiggybackWindow = DefaultPiggybackWindow
	}
	ov, err := overlay.Shared(p.OverlayKind, p.Nodes, OverlaySeed(p.Seed))
	if err != nil {
		panic(fmt.Sprintf("cup: %v", err))
	}
	s.Ov = ov
	s.Router = NewOverlayRouter(s.Ov)
	s.env = newNodeEnv(p.Config, s.Router, s.Sched.Now)
	s.env.obs = p.Observer
	s.C = &s.env.c
	s.nodes = nodeSlab{block: make([]Node, p.Nodes), size: p.Nodes}
	for i := range s.nodes.block {
		s.env.node(&s.nodes.block[i], overlay.NodeID(i))
	}
	s.Keys = make([]overlay.Key, p.Keys)
	for i := range s.Keys {
		s.Keys[i] = WorkloadKey(i)
		s.env.keys.intern(s.Keys[i])
	}
	s.keyPick = KeyPicker(s.Rng.Rand, s.Keys, p.ZipfSkew)
	s.endTime = sim.Time(p.QueryStart + p.QueryDuration + p.Drain)

	if !p.NoWorkload {
		// Replica lifecycle: births staggered across one lifetime so
		// refresh waves are not synchronized, then refresh-at-expiration
		// loops.
		for ki := range s.Keys {
			for r := 0; r < p.Replicas; r++ {
				birth := sim.Time(sim.Duration(s.Rng.Float64()) * p.Lifetime)
				ki, r := ki, r
				s.Sched.At(birth, func() { s.AddReplica(s.Keys[ki], r) })
			}
		}

		// Query workload: externally supplied events from the Traffic
		// stream (the paper's Poisson process unless the scenario says
		// otherwise).
		tr := p.Traffic
		if tr == nil {
			tr = PoissonTraffic(p.QueryRate)
		}
		s.startTraffic(tr)
	}

	for _, f := range p.Faults {
		name := f.Name()
		for _, ev := range f.Schedule(float64(p.QueryStart), float64(p.QueryDuration)) {
			ev := ev
			s.Sched.At(sim.Time(ev.At), func() { s.applyFault(name, ev) })
		}
	}
	return s
}

// WorkloadKey names the scripted workload's i-th key, on every transport.
func WorkloadKey(i int) overlay.Key { return overlay.Key(fmt.Sprintf("key-%d", i)) }

// TrafficEnv binds p's workload shape and query window to one run's
// randomness, node count, keys and pickers: the view a Traffic generator
// consumes, built alike by every runtime. The simulator's env shares its
// RNG, so generator draws interleave with the rest of the schedule
// deterministically.
func (p Params) TrafficEnv(rng *rand.Rand, nodes int, keys []overlay.Key, pickNode func() overlay.NodeID, pickKey func() overlay.Key) TrafficEnv {
	return TrafficEnv{Rand: rng, Nodes: nodes, Keys: keys, PickNode: pickNode, PickKey: pickKey,
		ZipfSkew: p.ZipfSkew, Rate: p.QueryRate, Start: float64(p.QueryStart), Duration: float64(p.QueryDuration)}
}

// startTraffic pulls the traffic stream one event ahead of the virtual
// clock: the next arrival is drawn at the previous arrival's instant
// (or at construction for the first), scheduled, and resolved to a
// concrete node and key at delivery. One closure serves the whole stream:
// it delivers the arrival it was armed with, then re-arms itself with the
// next, so a run of any length schedules its traffic without allocating.
// The stream is the scheduler's one Arrive caller: its armed arrival waits
// in the arrival slot, not in the heap beside the timers.
func (s *Simulation) startTraffic(tr Traffic) {
	st := tr.Stream(s.P.TrafficEnv(s.Rng.Rand, s.nodes.size, s.Keys, s.pickAliveNode, s.pickKey))
	var (
		ev      QueryEvent
		deliver func()
	)
	arm := func() {
		var ok bool
		if ev, ok = st.Next(); !ok {
			return
		}
		at := sim.Time(ev.At)
		if !(at >= s.Sched.Now()) {
			at = s.Sched.Now() // generators must not schedule into the past, nor at NaN
		}
		s.Sched.Arrive(at, deliver)
	}
	deliver = func() {
		nid := ev.Node
		if !s.NodeAlive(nid) { // AnyNode included
			nid = s.pickAliveNode()
		}
		k := ev.Key
		if k == "" {
			k = s.pickKey()
		}
		s.PostQueryAt(nid, k)
		arm()
	}
	arm()
}

// Authority returns the node owning k.
func (s *Simulation) Authority(k overlay.Key) *Node {
	return s.nodes.at(s.Ov.Owner(k))
}

// AddReplica registers replica r for key k at its authority and starts its
// refresh-at-expiration loop. The index entry's birth is announced as an
// Append update (§2.4).
func (s *Simulation) AddReplica(k overlay.Key, r int) {
	s.PublishReplica(k, r, ReplicaAddr(r), s.P.Lifetime, Append)
	s.scheduleRefresh(k, r, s.Sched.Now().Add(s.P.Lifetime))
}

// scheduleRefresh arms the next refresh for (k, r) exactly at expiration,
// per the paper: "refreshes of index entries occur at expiration".
func (s *Simulation) scheduleRefresh(k overlay.Key, r int, at sim.Time) {
	if at >= s.endTime {
		return
	}
	s.Sched.At(at, func() {
		auth := s.Authority(k)
		if _, ok := auth.LocalDirectory().Get(k, r); !ok {
			return // replica was deleted; stop refreshing
		}
		e := cache.Entry{Key: k, Replica: r, Addr: ReplicaAddr(r), Expires: s.Sched.Now().Add(s.P.Lifetime)}
		auth.InstallLocal(e)
		s.emitRefresh(auth, k, e)
		s.scheduleRefresh(k, r, e.Expires)
	})
}

// emitRefresh routes a replica refresh through the authority's §3.6
// refresh gate (suppression / aggregation) before origination. With no
// RefreshPolicy configured, every refresh propagates as its own update.
func (s *Simulation) emitRefresh(auth *Node, k overlay.Key, e cache.Entry) {
	if !s.P.RefreshPolicy.enabled() {
		s.originateRefresh(auth, k, []cache.Entry{e})
		return
	}
	g := s.gates[auth.ID()]
	if g == nil {
		g = newRefreshGate(s.P.RefreshPolicy)
		s.gates[auth.ID()] = g
	}
	release, flushIn := g.Offer(k, e, s.P.Replicas)
	if flushIn > 0 {
		s.Sched.After(flushIn, func() {
			if batch := g.Flush(k); len(batch) > 0 {
				s.originateRefresh(auth, k, batch)
			}
		})
	}
	if release != nil {
		s.originateRefresh(auth, k, release)
	}
}

// originateRefresh propagates one (possibly batched) refresh update.
func (s *Simulation) originateRefresh(auth *Node, k overlay.Key, entries []cache.Entry) {
	minReplica := entries[0].Replica
	var expires sim.Time
	for _, e := range entries {
		if e.Replica < minReplica {
			minReplica = e.Replica
		}
		if e.Expires > expires {
			expires = e.Expires
		}
	}
	u := Update{Key: k, Type: Refresh, Entries: entries, Replica: minReplica,
		Expires: expires, Lifetime: s.P.Lifetime}
	s.dispatch(auth.ID(), auth.originateUpdate(u))
}

// PublishReplica applies a replica event at k's authority and propagates
// it as an update of type ty (Append for births, Refresh for
// re-registrations, Delete for deaths), mirroring the live runtime's
// replica registration. Unlike AddReplica it does not arm a
// refresh-at-expiration loop: the publisher owns the refresh cadence,
// exactly as in a live deployment.
func (s *Simulation) PublishReplica(k overlay.Key, replica int, addr string, lifetime sim.Duration, ty UpdateType) {
	auth := s.Authority(k)
	s.dispatch(auth.ID(), auth.ReplicaEvent(ty, k, replica, addr, lifetime))
}

// Lookup posts a client query for k at node nid and drives the scheduler
// until the answer is delivered, returning the index entries — the
// discrete-event counterpart of live.Network.Lookup. Any scripted
// workload advances alongside on the virtual clock.
func (s *Simulation) Lookup(ctx context.Context, nid overlay.NodeID, k overlay.Key) ([]cache.Entry, error) {
	if !s.NodeAlive(nid) {
		return nil, fmt.Errorf("cup: lookup at invalid node %v", nid)
	}
	w := &lookupWaiter{}
	pk := pendKey{nid, s.env.keys.intern(k)}
	s.lookups[pk] = append(s.lookups[pk], w)
	s.PostQueryAt(nid, k)
	for i := 0; !w.done; i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := s.faultErr; err != nil {
			return nil, err
		}
		if !s.Sched.Step() {
			return nil, fmt.Errorf("cup: lookup for %q at %v never resolved (event queue drained)", k, nid)
		}
	}
	return w.entries, nil
}

// Settle drives the scheduler until no events remain — every in-flight
// message delivered, every timer fired — checking ctx periodically. With
// a scripted workload this executes the remainder of the schedule.
func (s *Simulation) Settle(ctx context.Context) error {
	for i := 0; ; i++ {
		if i%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.faultErr; err != nil {
				return err
			}
		}
		if !s.Sched.Step() {
			return s.faultErr
		}
	}
}

// RemoveReplica deletes replica r of key k: the authority removes the
// index entry and propagates a Delete update (§2.4).
func (s *Simulation) RemoveReplica(k overlay.Key, r int) {
	s.PublishReplica(k, r, "", s.P.Lifetime, Delete)
}

// pickAliveNode draws a uniformly random alive node.
func (s *Simulation) pickAliveNode() overlay.NodeID {
	nid := overlay.NodeID(s.Rng.Pick(s.nodes.size))
	for !s.NodeAlive(nid) {
		nid = overlay.NodeID(s.Rng.Pick(s.nodes.size))
	}
	return nid
}

// PostQueryAt posts a local client query for k at node nid, handing the
// one key-state lookup on to the handler, which counts and classifies it.
// This is where a query's key becomes a KeyID — on a one-key run, the
// intern table's memo. A local query is a hit exactly when the handler
// answers it inline (authority, or fresh entries cached); a hit is
// delivered here, without a dispatch, and the handler reads no field of
// the node on its way. A miss's post time is kept for its latency.
func (s *Simulation) PostQueryAt(nid overlay.NodeID, k overlay.Key) {
	kid := s.env.keys.intern(k)
	acts := s.env.handleQuery(s.nodes.at(nid), nid, s.state(nid, kid), LocalClient, 0)
	if len(acts) == 1 && acts[0].Kind == ActDeliverLocal {
		s.deliverLocal(nid, kid, acts[0].Entries)
		return
	}
	pk := pendKey{nid, kid}
	s.pending[pk] = append(s.pending[pk], s.Sched.Now()) // miss path
	s.dispatch(nid, acts)
}

func (s *Simulation) pickKey() overlay.Key { return s.keyPick() }

// state returns (allocating if needed) node nid's bookkeeping for key kid,
// straight from the owner's index.
func (s *Simulation) state(nid overlay.NodeID, kid KeyID) *keyState {
	if ks := s.env.peek(nid, kid); ks != nil {
		return ks
	}
	return s.nodes.at(nid).newState(kid)
}

// Size returns the number of nodes the run has held: the ones it was
// built with and every churn joiner, departed or not. Their ids are 0 …
// Size()−1.
func (s *Simulation) Size() int { return s.nodes.size }

// Node returns node id of the run, departed or not; nil if the run never
// held it.
func (s *Simulation) Node(id overlay.NodeID) *Node {
	if int(id) < 0 || int(id) >= s.nodes.size {
		return nil
	}
	return s.nodes.at(id)
}

// nodeSlab holds a run's nodes at stable addresses, in the pattern of the
// key states' statePool: the block the run was built with, then churn
// joiners in chunks that are allocated at full size and never move. Node
// id i is the i-th node it holds, so a node is found by arithmetic on its
// id — no table of pointers to load first.
type nodeSlab struct {
	block  []Node
	joined [][]Node
	size   int // nodes held: the block's, then the joiners
}

func (p *nodeSlab) at(id overlay.NodeID) *Node {
	if i := int(id); i < len(p.block) {
		return &p.block[i]
	}
	i := int(id) - len(p.block)
	return &p.joined[i>>chunkBits][i&(maxChunk-1)]
}

// add returns the slot of the next joiner, whose id is the count of nodes
// held before it.
func (p *nodeSlab) add() *Node {
	if (p.size-len(p.block))&(maxChunk-1) == 0 {
		p.joined = append(p.joined, make([]Node, maxChunk))
	}
	p.size++
	return p.at(overlay.NodeID(p.size - 1))
}

// message is one protocol message in flight: what the send action that
// emitted it carries, plus its sender. Every node of the run shares one
// intern table, so the sender's KeyID finds the receiver's state by one
// indexed probe.
type message struct {
	// u is an ActSendUpdate's update; a standard-caching query's token
	// rides in u.QueryID, where its response carries it back.
	u        Update
	from, to overlay.NodeID
	kid      KeyID
	kind     ActionKind // ActSendQuery, ActSendUpdate or ActSendClearBit
	carried  bool       // a clear-bit that rode a query or update (§2.7): no hop cost
}

// dispatch executes protocol actions emitted by node `from`: a send fills
// a slot of the run's message slab straight from its action and goes in
// flight, a local delivery happens inline. acts dies with the next handler
// call; a slot holds what its delivery needs.
func (s *Simulation) dispatch(from overlay.NodeID, acts []Action) {
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case ActSendQuery:
			ref, m := s.take(ActSendQuery, from, a.To, a.kid)
			m.u.QueryID = a.QueryID
			s.post(ref)
		case ActSendUpdate:
			ref, m := s.take(ActSendUpdate, from, a.To, a.kid)
			m.u = *a.Update // the one copy a send makes
			s.post(ref)
		case ActSendClearBit:
			if s.P.PiggybackClearBits {
				s.holdClearBit(from, a.To, a.kid)
				break
			}
			ref, _ := s.take(ActSendClearBit, from, a.To, a.kid)
			s.post(ref)
		case ActDeliverLocal:
			s.deliverLocal(from, a.kid, a.Entries)
		default:
			panic(fmt.Sprintf("cup: unknown action kind %d", a.Kind))
		}
	}
}

// take returns a free slot of the run's message slab, its header filled
// in, for the caller to complete and post. Of u it sets nothing: a query
// writes its token, an update the whole of it, and a clear-bit reads none
// of it. The pointer is valid until the next take.
func (s *Simulation) take(kind ActionKind, from, to overlay.NodeID, kid KeyID) (uint32, *message) {
	ref := uint32(len(s.msgs))
	if n := len(s.freeMsgs); n > 0 {
		ref = s.freeMsgs[n-1]
		s.freeMsgs = s.freeMsgs[:n-1]
	} else {
		s.msgs = append(s.msgs, message{}) // amortized: only past the peak of messages in flight
	}
	m := &s.msgs[ref]
	m.kind, m.from, m.to, m.kid, m.carried = kind, from, to, kid, false
	return ref, m
}

// post puts the message in slot ref in flight, due for deliver one hop
// delay from now. A departing query or update carries the clear-bits
// parked on its link, which go in flight just before it.
func (s *Simulation) post(ref uint32) {
	m := &s.msgs[ref]
	from, to := m.from, m.to
	if m.kind != ActSendClearBit && len(s.held) != 0 {
		s.flushHeldClearBits(from, to)
	}
	s.Sched.Post(s.delay(from, to), ref)
}

// release frees slot ref for the next send.
func (s *Simulation) release(ref uint32) {
	s.msgs[ref].u.Entries = nil          // the slot must not pin a retired entry set
	s.freeMsgs = append(s.freeMsgs, ref) // never longer than the slab
}

// deliver hands message ref to its receiver, which reads it where it lies
// and counts the hop: the slot is released only once the handler has
// returned (its sends may then reuse it).
func (s *Simulation) deliver(ref uint32) {
	m := &s.msgs[ref]
	to := m.to
	if !s.NodeAlive(to) {
		s.release(ref)
		return // departed mid-flight; a client re-queries
	}
	n := s.nodes.at(to)
	var acts []Action
	switch m.kind {
	case ActSendQuery:
		acts = s.env.handleQuery(n, to, s.state(to, m.kid), m.from, m.u.QueryID)
	case ActSendUpdate:
		acts = n.handleUpdate(s.state(to, m.kid), m.from, &m.u)
	case ActSendClearBit:
		acts = n.handleClearBit(s.env.peek(to, m.kid), m.from, m.carried)
	}
	s.release(ref)
	s.dispatch(to, acts)
}

// holdClearBit parks a clear-bit on its link waiting for a carrier (§2.7
// piggybacking); if no query or update departs on the link within the
// piggyback window, the clear-bit travels standalone and costs a hop.
func (s *Simulation) holdClearBit(from, to overlay.NodeID, kid KeyID) {
	cb := &heldClearBit{kid: kid}
	link := linkKey{from, to}
	s.held[link] = append(s.held[link], cb)
	s.Sched.After(s.P.PiggybackWindow, func() {
		if !cb.sent {
			cb.sent = true
			ref, _ := s.take(ActSendClearBit, from, to, kid)
			s.post(ref)
		}
	})
}

// flushHeldClearBits lets parked clear-bits ride a departing message on
// the same link: they arrive with the carrier at zero hop cost.
func (s *Simulation) flushHeldClearBits(from, to overlay.NodeID) {
	link := linkKey{from, to}
	bits := s.held[link]
	if len(bits) == 0 {
		return
	}
	delete(s.held, link)
	for _, cb := range bits {
		if cb.sent {
			continue
		}
		cb.sent = true
		s.C.PiggybackedClearBits++
		ref, m := s.take(ActSendClearBit, from, to, cb.kid)
		m.carried = true
		s.post(ref)
	}
}

// deliverLocal resolves the open local client connections at node nid.
// A hit usually finds both tables empty and touches neither.
func (s *Simulation) deliverLocal(nid overlay.NodeID, kid KeyID, entries []cache.Entry) {
	pk := pendKey{nid, kid}
	if len(s.pending) != 0 {
		now := s.Sched.Now()
		for _, t0 := range s.pending[pk] {
			s.C.MissLatencyTotal += float64(now.Sub(t0))
			s.C.MissesServed++
		}
		delete(s.pending, pk)
	}
	if len(s.lookups) != 0 {
		for _, w := range s.lookups[pk] {
			// The entries leave the run with the waiter's Lookup call.
			s.env.peek(nid, kid).shared = true
			w.done = true
			w.entries = entries
		}
		delete(s.lookups, pk)
	}
}

// SetCapacityFraction applies a reduced outgoing update capacity to a set
// of nodes (fig 5/6 fault injection).
func (s *Simulation) SetCapacityFraction(nodes []overlay.NodeID, c float64) {
	for _, n := range nodes {
		s.nodes.at(n).SetCapacity(c)
	}
}

// Run executes the whole schedule and returns the aggregated result.
func (s *Simulation) Run() *Result {
	res, err := s.RunContext(context.Background())
	if err != nil {
		panic(fmt.Sprintf("cup: simulation aborted: %v", err))
	}
	return res
}

// RunContext executes the schedule until the configured end time,
// checking ctx between batches of events, and returns the aggregated
// result.
func (s *Simulation) RunContext(ctx context.Context) (*Result, error) {
	const batch = 8192
	for fired := true; fired; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.faultErr; err != nil {
			return nil, err
		}
		// StepBy enforces the budget exactly: it errs as soon as an event
		// beyond it is due, so precisely MaxEvents events fire.
		for ran := 0; fired && ran < batch; ran++ {
			var err error
			if fired, err = s.Sched.StepBy(s.endTime); err != nil {
				return nil, err
			}
		}
	}
	if err := s.faultErr; err != nil {
		return nil, err
	}
	s.Sched.AdvanceTo(s.endTime)
	return &Result{Params: s.P, Counters: *s.C}, nil
}

// Run builds and runs a simulation in one call.
func Run(p Params) *Result { return NewSimulation(p).Run() }
