// Package live runs CUP as a real concurrent system: every peer is a
// goroutine, query channels and update channels are Go channels, and the
// per-hop network delay is wall-clock time. It drives exactly the same
// protocol state machine (internal/cup.Node) as the discrete-event
// simulator, so the simulated protocol and the deployable one cannot
// diverge — the transports are interchangeable shells.
//
// This is the runtime the examples and cmd/cuplive use; it is also a
// demonstration that the paper's node model ("every node maintains two
// logical channels per neighbor") maps one-to-one onto goroutines and
// channels.
package live

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Stats aggregates network-wide message counts.
type Stats struct {
	QueryMsgs    uint64
	UpdateMsgs   uint64
	ClearBitMsgs uint64
	// Joins and Leaves count §2.9 runtime membership events.
	Joins  uint64
	Leaves uint64
}

// Network hosts a set of CUP peers over an overlay.
type Network struct {
	ov     *lockedOverlay
	router *cup.OverlayRouter
	cfg    Config
	delay  time.Duration
	start  time.Time
	// peers is the peer table, published copy-on-write: readers load the
	// current slice and never lock; membership churn appends a slot by
	// publishing a longer copy under peersMu.
	peers   atomic.Pointer[[]*peer]
	peersMu sync.Mutex
	stats   Stats
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once
}

type msgKind int

const (
	msgQuery msgKind = iota
	msgUpdate
	msgClearBit
	msgControl
)

type message struct {
	kind   msgKind
	from   overlay.NodeID
	key    overlay.Key
	qid    uint64
	update cup.Update
	ctrl   func() // msgControl: run on the peer's goroutine
}

// peer is one goroutine-hosted protocol node: the shared client end plus
// a channel mailbox.
type peer struct {
	clientEnd
	inbox chan message
	net   *Network
}

// Config parameterizes a live network.
type Config struct {
	// Nodes is the overlay size.
	Nodes int
	// Overlay selects the routing substrate by its overlay-registry name:
	// "can" (default), "chord", or "kademlia".
	Overlay string
	// HopDelay is the wall-clock per-hop latency (default 1ms).
	HopDelay time.Duration
	// Node is the per-node protocol configuration (default cup.Defaults()).
	Node cup.Config
	// Seed drives overlay construction.
	Seed int64
	// InboxDepth bounds each peer's mailbox (default 1024).
	InboxDepth int
	// Observer, when set, receives the protocol event stream from every
	// peer. It is called from peer goroutines concurrently and must be
	// safe for concurrent use (cup.Bus is).
	Observer cup.Observer
}

// withDefaults fills unset fields from the shared defaults table in
// internal/cup — the same table the simulator's Params defaulting uses,
// so the two runtimes cannot drift.
func (cfg Config) withDefaults() Config {
	if cfg.HopDelay == 0 {
		cfg.HopDelay = cup.DefaultLiveHopDelay
	}
	if cfg.Node.Policy == nil {
		cfg.Node = cup.Defaults()
	}
	if cfg.InboxDepth == 0 {
		cfg.InboxDepth = cup.DefaultInboxDepth
	}
	if cfg.Seed == 0 {
		cfg.Seed = cup.DefaultSeed
	}
	if cfg.Overlay == "" {
		cfg.Overlay = cup.DefaultOverlayKind
	}
	return cfg
}

// NewNetwork builds an overlay of cfg.Nodes peers (a CAN unless
// cfg.Overlay selects another registered substrate) and starts one
// goroutine per peer. Callers must Close the network when done.
func NewNetwork(cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("live: Nodes must be positive")
	}
	cfg = cfg.withDefaults()
	// The overlay seed derivation is shared with the simulator, so the
	// same seed and options build the same topology on either transport.
	ov := newLockedOverlay(
		buildOverlay(cfg.Overlay, cfg.Nodes, cup.OverlaySeed(cfg.Seed)),
		cfg.Overlay, cup.OverlaySeed(cfg.Seed)+1)
	n := &Network{
		ov:     ov,
		router: cup.NewOverlayRouter(ov),
		cfg:    cfg,
		delay:  cfg.HopDelay,
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	// Memoized routes go stale under churn; the flag must be set before
	// any peer goroutine starts, since they read it without a lock.
	n.router.Dynamic = ov.dynamic() != nil
	peers := make([]*peer, cfg.Nodes)
	for i := range peers {
		peers[i] = n.newPeer(overlay.NodeID(i))
	}
	n.peers.Store(&peers)
	for _, p := range peers {
		n.wg.Add(1)
		go p.loop(&n.wg)
	}
	return n
}

// newPeer constructs (but does not start) one goroutine-hosted node.
func (n *Network) newPeer(id overlay.NodeID) *peer {
	p := &peer{inbox: make(chan message, n.cfg.InboxDepth), net: n}
	p.clientEnd = newClientEnd(id, n.cfg, n.router, n.now, p, n.closed)
	return p
}

// now maps wall time onto the protocol's virtual clock.
func (n *Network) now() sim.Time { return sim.Time(time.Since(n.start).Seconds()) }

// Now exposes the network clock (useful for constructing entry lifetimes).
func (n *Network) Now() sim.Time { return n.now() }

// Size returns the number of peer slots ever allocated (IDs are dense
// and never reused, so departed peers keep their slot). Use IsAlive to
// test current membership.
func (n *Network) Size() int { return len(*n.peers.Load()) }

// peerAt returns peer id, nil when out of range.
func (n *Network) peerAt(id overlay.NodeID) *peer {
	peers := *n.peers.Load()
	if int(id) < 0 || int(id) >= len(peers) {
		return nil
	}
	return peers[id]
}

// IsAlive reports whether node id exists and has not departed.
func (n *Network) IsAlive(id overlay.NodeID) bool {
	p := n.peerAt(id)
	return p != nil && !p.isGone()
}

// HopDelay returns the configured per-hop wall-clock latency.
func (n *Network) HopDelay() time.Duration { return n.delay }

// IsClosed reports whether Close has been called.
func (n *Network) IsClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Overlay exposes the underlying overlay (read-only use).
func (n *Network) Overlay() overlay.Overlay { return n.ov }

// Stats returns a snapshot of message counters.
func (n *Network) Stats() Stats {
	return Stats{
		QueryMsgs:    atomic.LoadUint64(&n.stats.QueryMsgs),
		UpdateMsgs:   atomic.LoadUint64(&n.stats.UpdateMsgs),
		ClearBitMsgs: atomic.LoadUint64(&n.stats.ClearBitMsgs),
		Joins:        atomic.LoadUint64(&n.stats.Joins),
		Leaves:       atomic.LoadUint64(&n.stats.Leaves),
	}
}

// InboxLoad sums current occupancy and capacity across every live peer's
// inbox — a point-in-time congestion gauge for telemetry. Channel
// lengths are sampled racily, which is fine for a gauge.
func (n *Network) InboxLoad() (used, capacity int) {
	for _, p := range *n.peers.Load() {
		if !p.isGone() {
			used += len(p.inbox)
			capacity += cap(p.inbox)
		}
	}
	return used, capacity
}

// InboxLoadAt is InboxLoad for the one peer id: what an admission guard
// in front of that peer's mailbox should watch. A departed or unknown
// peer reports (0, 0).
func (n *Network) InboxLoadAt(id overlay.NodeID) (used, capacity int) {
	if p := n.peerAt(id); p != nil && !p.isGone() {
		return len(p.inbox), cap(p.inbox)
	}
	return 0, 0
}

// Close shuts down all peers and waits for their goroutines.
func (n *Network) Close() {
	n.once.Do(func() { close(n.closed) })
	n.wg.Wait()
}

// send delivers a message after the per-hop delay. Deliveries racing a
// Close are dropped, mirroring a network partition at shutdown; sends to
// a departed peer are dropped as in-flight losses (§2.9).
func (n *Network) send(to overlay.NodeID, m message) {
	time.AfterFunc(n.delay, func() {
		p := n.peerAt(to)
		if p == nil {
			return
		}
		select {
		case p.inbox <- m:
		case <-p.gone:
		case <-n.closed:
		}
	})
}

// loop is the peer goroutine: one message at a time through the protocol
// state machine, actions dispatched back onto the network. A departing
// peer switches to the retired state instead of exiting so that control
// messages racing the departure always complete.
func (p *peer) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-p.net.closed:
			return
		case m := <-p.inbox:
			p.handle(m)
			if p.departing {
				close(p.gone)
				p.retired()
				return
			}
		}
	}
}

// retired services a departed peer's inbox until network shutdown:
// control callbacks still run (a caller that enqueued one while the
// departure raced must not hang on its done channel), while protocol
// messages are discarded — they are the departure's in-flight losses.
// The goroutine itself is the drain; slots are never reused, so at most
// one retired goroutine exists per departed peer.
func (p *peer) retired() {
	for {
		select {
		case <-p.net.closed:
			return
		case m := <-p.inbox:
			if m.kind == msgControl {
				m.ctrl()
			}
		}
	}
}

func (p *peer) handle(m message) {
	var acts []cup.Action
	switch m.kind {
	case msgQuery:
		acts = p.query(m.from, m.key, m.qid)
	case msgUpdate:
		acts = p.update(m.from, m.update)
	case msgClearBit:
		acts = p.clearBit(m.from, m.key)
	case msgControl:
		m.ctrl()
		return
	}
	p.dispatch(acts)
}

// post and tryPost put a control callback in the mailbox (shell).
func (p *peer) post(ctx context.Context, fn func()) error {
	select {
	case p.inbox <- message{kind: msgControl, ctrl: fn}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.net.closed:
		return ErrClosed
	}
}

func (p *peer) tryPost(fn func()) {
	select {
	case p.inbox <- message{kind: msgControl, ctrl: fn}:
	default:
	}
}

func (p *peer) dispatch(acts []cup.Action) {
	for _, a := range acts {
		switch a.Kind {
		case cup.ActSendQuery:
			atomic.AddUint64(&p.net.stats.QueryMsgs, 1)
			p.net.send(a.To, message{kind: msgQuery, from: p.id, key: a.Key, qid: a.QueryID})
		case cup.ActSendUpdate:
			atomic.AddUint64(&p.net.stats.UpdateMsgs, 1)
			p.net.send(a.To, message{kind: msgUpdate, from: p.id, key: a.Key, update: a.Update})
		case cup.ActSendClearBit:
			atomic.AddUint64(&p.net.stats.ClearBitMsgs, 1)
			p.net.send(a.To, message{kind: msgClearBit, from: p.id, key: a.Key})
		case cup.ActDeliverLocal:
			p.deliver(a.Key, a.Entries)
		}
	}
}

// ErrClosed is returned by client operations racing a Close.
var ErrClosed = errors.New("live: network closed")

// Lookup answers a local client's query for key at node id. A fresh
// answer the peer has published — it answered a local client for key
// before and no entry has expired since — is read lock-free from the
// caller's goroutine; otherwise the query is posted to the peer and, if
// the peer has nothing fresh, travels the overlay. A cancelled lookup
// deregisters its open connection at the peer, so abandoned queries on a
// slow or partitioned network do not accumulate state.
func (n *Network) Lookup(ctx context.Context, id overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	p := n.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: lookup at unknown node %v", id)
	}
	return p.lookup(ctx, key)
}

// Authority returns the node owning key.
func (n *Network) Authority(key overlay.Key) overlay.NodeID { return n.ov.Owner(key) }

// atAuthority returns key's authority peer; the error covers the instant
// of a join in which the overlay already names a peer not yet spawned.
func (n *Network) atAuthority(key overlay.Key) (*peer, error) {
	id := n.Authority(key)
	if p := n.peerAt(id); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("live: control of unknown node %v", id)
}

// controlNode runs fn on node id's goroutine with exclusive access to
// its protocol state and blocks until it completes, ctx cancels, or the
// network closes (see clientEnd.run).
func (n *Network) controlNode(ctx context.Context, id overlay.NodeID, fn func(*cup.Node)) error {
	p := n.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: control of unknown node %v", id)
	}
	return p.run(ctx, func() { fn(p.node) })
}

// AddReplica installs an index entry for (key, replica) at its authority
// and propagates the birth as an Append update. lifetime bounds the
// entry's freshness; replicas should Refresh before it elapses.
func (n *Network) AddReplica(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = n.AddReplicaCtx(context.Background(), key, replica, addr, lifetime)
}

// AddReplicaCtx is AddReplica with cancellation: it returns once the
// authority has registered the replica (propagation continues async).
func (n *Network) AddReplicaCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, key, replica, addr, lifetime, cup.Append)
}

// Refresh extends the lifetime of (key, replica), propagating a Refresh
// update to interested peers.
func (n *Network) Refresh(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = n.RefreshCtx(context.Background(), key, replica, addr, lifetime)
}

// RefreshCtx is Refresh with cancellation.
func (n *Network) RefreshCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, key, replica, addr, lifetime, cup.Refresh)
}

func (n *Network) replicaEvent(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration, ty cup.UpdateType) error {
	p, err := n.atAuthority(key)
	if err != nil {
		return err
	}
	return p.replicaEvent(ctx, key, replica, addr, lifetime, ty)
}

// RemoveReplica deletes (key, replica) at the authority and propagates a
// Delete update so caches do not serve the dead replica until expiry.
func (n *Network) RemoveReplica(key overlay.Key, replica int) {
	_ = n.RemoveReplicaCtx(context.Background(), key, replica)
}

// RemoveReplicaCtx is RemoveReplica with cancellation.
func (n *Network) RemoveReplicaCtx(ctx context.Context, key overlay.Key, replica int) error {
	p, err := n.atAuthority(key)
	if err != nil {
		return err
	}
	return p.removeReplica(ctx, key, replica)
}

// SetCapacity adjusts a peer's outgoing update capacity fraction
// (negative restores full capacity), as in the §3.7 experiments.
func (n *Network) SetCapacity(id overlay.NodeID, c float64) {
	_ = n.controlNode(context.Background(), id, func(node *cup.Node) { node.SetCapacity(c) })
}

// Inspect runs fn on node id's goroutine with exclusive access to its
// protocol state; it blocks until fn completes. Intended for tests and
// diagnostics.
func (n *Network) Inspect(id overlay.NodeID, fn func(*cup.Node)) {
	_ = n.controlNode(context.Background(), id, fn)
}

// Quiesced reports whether no messages were in flight across one probe
// window: it samples the traffic counters, waits for window, and samples
// again. Settling callers poll it until two samples agree.
func (n *Network) Quiesced(window time.Duration) bool {
	before := n.Stats()
	timer := time.NewTimer(window)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-n.closed:
		return true
	}
	return n.Stats() == before
}

// --- runtime membership churn (§2.9) ----------------------------------
//
// Network implements churnHost; the choreography itself lives in
// churn.go and is shared with the TCP transport.

func (n *Network) lov() *lockedOverlay { return n.ov }

func (n *Network) invalidateRoutes() { n.router.Invalidate() }

func (n *Network) slots() int { return n.Size() }

func (n *Network) aliveSlot(id overlay.NodeID) bool { return n.IsAlive(id) }

func (n *Network) spawnMember(id overlay.NodeID) error {
	p := n.newPeer(id)
	n.peersMu.Lock()
	old := *n.peers.Load()
	if int(id) != len(old) {
		n.peersMu.Unlock()
		return fmt.Errorf("live: spawn of non-dense node id %v (have %d slots)", id, len(old))
	}
	grown := append(old[:len(old):len(old)], p)
	n.peers.Store(&grown)
	n.peersMu.Unlock()
	n.wg.Add(1)
	go p.loop(&n.wg)
	return nil
}

func (n *Network) retireMember(ctx context.Context, id overlay.NodeID) ([]cache.Entry, error) {
	p := n.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: retire of unknown node %v", id)
	}
	return p.depart(ctx)
}

func (n *Network) emitMembership(kind cup.EventKind, id overlay.NodeID) {
	if n.cfg.Observer == nil {
		return
	}
	n.cfg.Observer.OnEvent(cup.Event{Kind: kind, Time: n.now(), Node: id, Peer: overlay.NoNode})
}

func (n *Network) countChurn(join bool) {
	if join {
		atomic.AddUint64(&n.stats.Joins, 1)
	} else {
		atomic.AddUint64(&n.stats.Leaves, 1)
	}
}

// Join adds one peer to the running network (§2.9 arrivals): the overlay
// wires it in, a fresh goroutine starts, previous owners hand over the
// index entries that now hash into its region, and affected neighbors
// patch their interest bit vectors. Returns the new node's ID, or a
// descriptive error when the overlay substrate is static.
func (n *Network) Join(ctx context.Context) (overlay.NodeID, error) {
	return churnJoin(ctx, n)
}

// Leave retires peer id (§2.9 departures): its directory hands over to
// each key's new authority, its goroutine stops applying protocol state,
// and nodes that routed through it re-knit. Errors on a static overlay,
// an unknown or already-departed node, or the last member.
func (n *Network) Leave(ctx context.Context, id overlay.NodeID) error {
	return churnLeave(ctx, n, id)
}
