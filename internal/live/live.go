// Package live runs CUP as a real concurrent system: every peer is a
// protocol node behind one lock, which whatever reaches it — a
// neighbour's message, a client's lookup, a control call — takes on the
// goroutine that brings it, and the per-hop network delay is wall-clock
// time. It drives exactly the same protocol state machine
// (internal/cup.Node) as the discrete-event simulator, so the simulated
// protocol and the deployable one cannot diverge. There is one Network
// and one peer; how a message crosses from one peer to the next — an
// in-memory delivery after an injected delay, or a wire-encoded frame on
// a loopback socket — is the link (link.go, tcp.go), and the only code
// that knows.
//
// This is the runtime behind cup.Live and cup.LiveTCP deployments (cupsim
// -transport live|tcp, cupd, the examples); it is also a
// demonstration that the paper's node model ("every node maintains two
// logical channels per neighbor") maps one-to-one onto in-memory hops or
// onto sockets.
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
	"cup/internal/metrics"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Stats aggregates network-wide message counts.
type Stats struct {
	QueryMsgs    uint64
	UpdateMsgs   uint64
	ClearBitMsgs uint64
}

// Network hosts a set of CUP peers over an overlay. It is the one live
// network: what differs between the goroutine transport and the TCP one
// is its link, and nothing else.
type Network struct {
	ov     *lockedOverlay
	router *cup.OverlayRouter
	cfg    Config
	link   link
	start  time.Time
	// peers is the peer table: readers load the current slice and never
	// lock; spawn appends a slot and publishes the longer slice under
	// peersMu, which Close also takes, so a peer is either in the table
	// Close walks or refused.
	peers   atomic.Pointer[[]*peer]
	peersMu sync.Mutex
	stats   Stats
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once
	// churnMu serializes whole joins and leaves (churn.go); churn is the
	// §2.9 choreography over ov.
	churnMu sync.Mutex
	churn   cup.Churn
}

type msgKind uint8

const (
	msgQuery msgKind = iota
	msgUpdate
	msgClearBit
)

// message is what a link carries: one protocol message from a neighbor,
// handed to the receiving peer by peer.receive.
type message struct {
	key overlay.Key
	qid uint64
	// update is the update a msgUpdate carries. At the receiver it is the
	// receiver's to read and no one's to write: the goroutine link's
	// copy (see peer.dispatch) or a decoded frame. The TCP link's send
	// gets the owner's out-update itself and encodes it before returning.
	update *cup.Update
	from   overlay.NodeID
	kind   msgKind
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
	// InboxDepth is the work a peer is sized to queue: the capacity its
	// admission load (goroutines waiting for its lock) is reported
	// against (default 1024).
	InboxDepth int
	// Observer, when set, receives the protocol event stream from every
	// peer. It is called concurrently, by whichever goroutines hold the
	// peers' locks and by lookups served from the view, and must be
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
// cfg.Overlay selects another registered substrate) whose peers are
// joined in memory, each hop delivered after cfg.HopDelay. Callers must
// Close the network when done.
func NewNetwork(cfg Config) *Network {
	if cfg.Nodes <= 0 {
		panic("live: Nodes must be positive")
	}
	cfg = cfg.withDefaults()
	lk := &chanLink{}
	n, err := boot(cfg, lk)
	if err != nil {
		panic(err) // unreachable: the goroutine link opens nothing that can fail
	}
	lk.start(n)
	return n
}

// boot builds the overlay and spawns cfg.Nodes peers over lk. A failed
// spawn closes the network, releasing whatever the link opened so far.
func boot(cfg Config, lk link) (*Network, error) {
	// The overlay seed derivation is shared with the simulator, so the
	// same seed and options build the same topology on either transport.
	// An unknown kind panics with the registered kinds listed.
	built, err := overlay.Build(cfg.Overlay, cfg.Nodes, cup.OverlaySeed(cfg.Seed))
	if err != nil {
		panic(fmt.Sprintf("live: %v", err))
	}
	ov := &lockedOverlay{ov: built}
	ov.dyn, _ = built.(cup.DynamicOverlay)
	n := &Network{
		ov:     ov,
		router: cup.NewOverlayRouter(ov),
		cfg:    cfg,
		link:   lk,
		start:  time.Now(),
		closed: make(chan struct{}),
	}
	n.churn = cup.Churn{Kind: cfg.Overlay, Router: n.router, Rand: sim.NewRand(cup.OverlaySeed(cfg.Seed) + 1)}
	if ov.dyn != nil {
		n.churn.Overlay = ov
		// Memoized routes go stale under churn; the flag must be set
		// before any peer can receive, since handlers read it without a
		// lock.
		n.router.Dynamic = true
	}
	peers := make([]*peer, 0, cfg.Nodes)
	n.peers.Store(&peers)
	for i := 0; i < cfg.Nodes; i++ {
		if err := n.spawn(overlay.NodeID(i)); err != nil {
			n.Close()
			return nil, err
		}
	}
	return n, nil
}

// Now is the network clock: wall time since boot mapped onto the
// protocol's virtual clock (useful for constructing entry lifetimes).
func (n *Network) Now() sim.Time { return sim.Time(time.Since(n.start).Seconds()) }

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

// HopDelay returns the injected per-hop wall-clock latency; zero on TCP,
// where hops cost real loopback round-trips.
func (n *Network) HopDelay() time.Duration { return n.cfg.HopDelay }

// IsClosed reports whether Close has been called.
func (n *Network) IsClosed() bool {
	select {
	case <-n.closed:
		return true
	default:
		return false
	}
}

// Stats returns a snapshot of message counters.
func (n *Network) Stats() Stats {
	return Stats{
		QueryMsgs:    atomic.LoadUint64(&n.stats.QueryMsgs),
		UpdateMsgs:   atomic.LoadUint64(&n.stats.UpdateMsgs),
		ClearBitMsgs: atomic.LoadUint64(&n.stats.ClearBitMsgs),
	}
}

// InboxLoad sums, across every live peer, the goroutines waiting for
// its lock — deliveries, lookups and control calls queued at it — and
// the InboxDepth each is sized for: a point-in-time congestion gauge for
// telemetry.
func (n *Network) InboxLoad() (used, capacity int) {
	for _, p := range *n.peers.Load() {
		if !p.isGone() {
			used += int(p.load.Load())
			capacity += n.cfg.InboxDepth
		}
	}
	return used, capacity
}

// InboxLoadAt is InboxLoad for the one peer id: what an admission guard
// in front of that peer should watch. A departed or unknown peer reports
// (0, 0).
func (n *Network) InboxLoadAt(id overlay.NodeID) (used, capacity int) {
	if p := n.peerAt(id); p != nil && !p.isGone() {
		return int(p.load.Load()), n.cfg.InboxDepth
	}
	return 0, 0
}

// Close shuts down all peers, releases whatever the link holds for them
// (sockets, the port-budget reservation) and waits for the link's
// goroutines. A hop's handler already running finishes on its own.
func (n *Network) Close() {
	n.once.Do(func() {
		close(n.closed)
		// A spawn holding peersMu finishes first and is in the snapshot;
		// one that takes it afterwards sees closed and opens nothing.
		n.peersMu.Lock()
		peers := *n.peers.Load()
		n.peersMu.Unlock()
		for _, p := range peers {
			n.link.close(p)
		}
	})
	n.wg.Wait()
}

// ErrClosed is returned by client operations on a closed network or
// racing its Close.
var ErrClosed = errors.New("live: network closed")

// Lookup answers a local client's query for key at node id. A fresh
// answer the peer has published — it answered a local client for key
// before and no entry has expired since — is read lock-free from the
// caller's goroutine; otherwise the query runs at the peer under its
// lock and, if the peer has nothing fresh, travels the overlay. A
// cancelled lookup deregisters its open connection at the peer, so
// abandoned queries on a slow or partitioned network do not accumulate
// state.
func (n *Network) Lookup(ctx context.Context, id overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	p := n.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: lookup at unknown node %v", id)
	}
	return p.lookup(ctx, key)
}

// Authority returns the node owning key.
func (n *Network) Authority(key overlay.Key) overlay.NodeID { return n.ov.Owner(key) }

// controlNode runs fn under node id's lock, with exclusive access to its
// protocol state, unless ctx ends or the network closes first (see
// peer.locked).
func (n *Network) controlNode(ctx context.Context, id overlay.NodeID, fn func(*cup.Node)) error {
	p := n.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: control of unknown node %v", id)
	}
	return p.locked(ctx, "", func() { fn(p.node) })
}

// AddReplicaCtx installs an index entry for (key, replica) at its
// authority and propagates the birth as an Append update. lifetime
// bounds the entry's freshness; replicas should refresh before it
// elapses. It returns once the authority has registered the replica
// (propagation continues async), or when ctx cancels.
func (n *Network) AddReplicaCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, cup.Append, key, replica, addr, sim.Duration(lifetime.Seconds()))
}

// RefreshCtx extends the lifetime of (key, replica), propagating a
// Refresh update to interested peers.
func (n *Network) RefreshCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return n.replicaEvent(ctx, cup.Refresh, key, replica, addr, sim.Duration(lifetime.Seconds()))
}

// RemoveReplicaCtx deletes (key, replica) at the authority and
// propagates a Delete update so caches do not serve the dead replica
// until expiry; like the simulator's, it stays justified for one default
// replica lifetime.
func (n *Network) RemoveReplicaCtx(ctx context.Context, key overlay.Key, replica int) error {
	return n.replicaEvent(ctx, cup.Delete, key, replica, "", cup.DefaultLifetime)
}

// replicaEvent applies the event at key's authority. The error covers the
// instant of a join in which the overlay already names a peer not yet
// spawned.
func (n *Network) replicaEvent(ctx context.Context, ty cup.UpdateType, key overlay.Key, replica int, addr string, lifetime sim.Duration) error {
	id := n.Authority(key)
	p := n.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: control of unknown node %v", id)
	}
	return p.replicaEvent(ctx, ty, key, replica, addr, lifetime)
}

// SetCapacity adjusts a peer's outgoing update capacity fraction
// (negative restores full capacity), as in the §3.7 experiments. Like
// every control call it waits for the peer's lock no longer than ctx
// allows, and rejects an id the network never issued.
func (n *Network) SetCapacity(ctx context.Context, id overlay.NodeID, c float64) error {
	return n.controlNode(ctx, id, func(node *cup.Node) { node.SetCapacity(c) })
}

// Inspect runs fn under node id's lock, with exclusive access to its
// protocol state; it blocks until fn completes. It fails without running
// fn on an unknown node or a closed network. Intended for tests and
// diagnostics.
func (n *Network) Inspect(id overlay.NodeID, fn func(*cup.Node)) error {
	return n.controlNode(context.Background(), id, fn)
}

// Counters sums the peers' cost counters (§3.3), each read under its
// peer's lock once the hits its view served are credited. It takes each
// lock whether or not the network is closed, so a handler still running
// after Close finishes before its counters are read.
func (n *Network) Counters() (sum metrics.Counters) {
	for _, p := range *n.peers.Load() {
		p.mu <- struct{}{}
		p.view.creditAll()
		c := p.node.Counters()
		p.unlock()
		sum.Add(&c)
	}
	return sum
}

// Quiesced reports whether no messages were in flight across one probe
// window: it samples the traffic counters, waits for window, and samples
// again. Settling callers poll it until two samples agree.
func (n *Network) Quiesced(window time.Duration) bool {
	before := n.Stats()
	return n.Sleep(context.Background(), window) != nil || n.Stats() == before
}

// Sleep waits d. It returns early with ctx's error when ctx ends, or with
// ErrClosed when the network closes.
func (n *Network) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-n.closed:
		return ErrClosed
	}
}

// spawn creates peer id (== Size() at call time), lets the link open
// what it needs for it, and adds it to the peer table: boot spawns the
// founding members, a join (churn.go) each newcomer. On a closed network
// it opens nothing and returns ErrClosed.
func (n *Network) spawn(id overlay.NodeID) error {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if n.IsClosed() {
		return ErrClosed
	}
	old := *n.peers.Load()
	if int(id) != len(old) {
		return fmt.Errorf("live: spawn of non-dense node id %v (have %d slots)", id, len(old))
	}
	p := newPeer(n, id, n.router, n.Now)
	if err := n.link.open(p); err != nil {
		return err
	}
	// Appending in place is safe under a reader: it holds the shorter
	// header and never looks at the new slot.
	grown := append(old, p)
	n.peers.Store(&grown)
	return nil
}
