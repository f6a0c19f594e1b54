package live

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
	"cup/internal/wire"
)

// TCPNetwork runs CUP peers as real TCP endpoints on the loopback
// interface: every peer owns a listener, query/update/clear-bit messages
// are wire-encoded frames over persistent connections, and the protocol
// state machine is the same internal/cup.Node the simulator drives. This
// is the deployment shape the paper describes — two logical channels per
// neighbor — expressed as sockets. It implements the same endpoint
// surface as *Network, including §2.9 runtime membership churn, so the
// scenario engine and the Deployment trial loop drive both.
type TCPNetwork struct {
	ov     *lockedOverlay
	router *cup.OverlayRouter
	cfg    Config
	start  time.Time
	// peers is the peer table, published copy-on-write like Network's.
	peers   atomic.Pointer[[]*tcpPeer]
	peersMu sync.Mutex
	// portsMu guards ports, the listener count currently reserved against
	// the shared port budget (churn adjusts it at runtime).
	portsMu sync.Mutex
	ports   int
	stats   Stats
	wg      sync.WaitGroup
	closed  chan struct{}
	once    sync.Once
}

// tcpPeer is one protocol endpoint: the shared client end, a listener,
// an inbox serializing all protocol work onto one goroutine, and lazily
// dialed outbound conns.
type tcpPeer struct {
	clientEnd
	net   *TCPNetwork
	ln    net.Listener
	inbox chan tcpWork

	mu    sync.Mutex // guards conns
	conns map[overlay.NodeID]net.Conn
	// frame is the encode buffer of sendWire, which only the peer's
	// goroutine calls.
	frame []byte
}

// tcpWork is one unit for the peer goroutine: either an inbound protocol
// message or a control closure.
type tcpWork struct {
	msg  wire.Message
	ctrl func()
}

// NewTCPNetwork starts cfg.Nodes peers listening on 127.0.0.1 ephemeral
// ports over the configured overlay substrate. The listeners are drawn
// from the shared port budget (see budget.go), so concurrent networks
// fail fast instead of racing the kernel's ephemeral-port range; every
// error path releases the reservation. Close releases all sockets,
// goroutines, and the budget reservation.
func NewTCPNetwork(cfg Config) (*TCPNetwork, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("live: need at least one peer, got %d", cfg.Nodes)
	}
	cfg = cfg.withDefaults()
	if err := acquirePorts(cfg.Nodes); err != nil {
		return nil, err
	}
	ov := newLockedOverlay(
		buildOverlay(cfg.Overlay, cfg.Nodes, cup.OverlaySeed(cfg.Seed)),
		cfg.Overlay, cup.OverlaySeed(cfg.Seed)+1)
	tn := &TCPNetwork{
		ov:     ov,
		router: cup.NewOverlayRouter(ov),
		cfg:    cfg,
		start:  time.Now(),
		ports:  cfg.Nodes,
		closed: make(chan struct{}),
	}
	tn.router.Dynamic = ov.dynamic() != nil
	// Published before it is filled — nothing else runs yet — so that a
	// failed boot's Close reaches the listeners bound so far.
	peers := make([]*tcpPeer, 0, cfg.Nodes)
	tn.peers.Store(&peers)
	for i := 0; i < cfg.Nodes; i++ {
		p, err := tn.newTCPPeer(overlay.NodeID(i))
		if err != nil {
			tn.Close()
			return nil, err
		}
		peers = append(peers, p)
	}
	for _, p := range peers {
		tn.wg.Add(2)
		go p.acceptLoop(&tn.wg)
		go p.workLoop(&tn.wg)
	}
	return tn, nil
}

// newTCPPeer binds one loopback listener and constructs (but does not
// start) the peer that owns it.
func (tn *TCPNetwork) newTCPPeer(id overlay.NodeID) (*tcpPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	p := &tcpPeer{
		net:   tn,
		ln:    ln,
		inbox: make(chan tcpWork, tn.cfg.InboxDepth),
		conns: make(map[overlay.NodeID]net.Conn),
	}
	p.clientEnd = newClientEnd(id, tn.cfg, tn.router, tn.now, p, tn.closed)
	return p, nil
}

func (tn *TCPNetwork) now() sim.Time { return sim.Time(time.Since(tn.start).Seconds()) }

// Now exposes the network clock.
func (tn *TCPNetwork) Now() sim.Time { return tn.now() }

// Size returns the number of peer slots ever allocated (dense IDs,
// never reused); use IsAlive for current membership.
func (tn *TCPNetwork) Size() int { return len(*tn.peers.Load()) }

func (tn *TCPNetwork) peerAt(id overlay.NodeID) *tcpPeer {
	peers := *tn.peers.Load()
	if int(id) < 0 || int(id) >= len(peers) {
		return nil
	}
	return peers[id]
}

// IsAlive reports whether node id exists and has not departed.
func (tn *TCPNetwork) IsAlive(id overlay.NodeID) bool {
	p := tn.peerAt(id)
	return p != nil && !p.isGone()
}

// Done closes when the network shuts down.
func (tn *TCPNetwork) Done() <-chan struct{} { return tn.closed }

// IsClosed reports whether Close has been called.
func (tn *TCPNetwork) IsClosed() bool {
	select {
	case <-tn.closed:
		return true
	default:
		return false
	}
}

// HopDelay is zero: hops cost real loopback round-trips, not an
// injected delay.
func (tn *TCPNetwork) HopDelay() time.Duration { return 0 }

// Addr returns the listen address of peer id (for external clients).
func (tn *TCPNetwork) Addr(id overlay.NodeID) string { return tn.peerAt(id).ln.Addr().String() }

// Authority returns the node owning key.
func (tn *TCPNetwork) Authority(key overlay.Key) overlay.NodeID { return tn.ov.Owner(key) }

// Stats returns a snapshot of message counters.
func (tn *TCPNetwork) Stats() Stats {
	return Stats{
		QueryMsgs:    atomic.LoadUint64(&tn.stats.QueryMsgs),
		UpdateMsgs:   atomic.LoadUint64(&tn.stats.UpdateMsgs),
		ClearBitMsgs: atomic.LoadUint64(&tn.stats.ClearBitMsgs),
		Joins:        atomic.LoadUint64(&tn.stats.Joins),
		Leaves:       atomic.LoadUint64(&tn.stats.Leaves),
	}
}

// InboxLoad sums occupancy and capacity across live peers' inboxes.
func (tn *TCPNetwork) InboxLoad() (used, capacity int) {
	for _, p := range *tn.peers.Load() {
		if !p.isGone() {
			used += len(p.inbox)
			capacity += cap(p.inbox)
		}
	}
	return used, capacity
}

// InboxLoadAt is InboxLoad for the one peer id; see Network.InboxLoadAt.
func (tn *TCPNetwork) InboxLoadAt(id overlay.NodeID) (used, capacity int) {
	if p := tn.peerAt(id); p != nil && !p.isGone() {
		return len(p.inbox), cap(p.inbox)
	}
	return 0, 0
}

// Quiesced reports whether no messages were counted across one probe
// window, as on the goroutine transport.
func (tn *TCPNetwork) Quiesced(window time.Duration) bool {
	before := tn.Stats()
	timer := time.NewTimer(window)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-tn.closed:
		return true
	}
	return tn.Stats() == before
}

// Close tears the network down: listeners, connections, goroutines, and
// the port-budget reservation.
func (tn *TCPNetwork) Close() {
	tn.once.Do(func() {
		close(tn.closed)
		for _, p := range *tn.peers.Load() {
			p.shutdownSockets()
		}
		tn.portsMu.Lock()
		releasePorts(tn.ports)
		tn.ports = 0
		tn.portsMu.Unlock()
	})
	tn.wg.Wait()
}

// shutdownSockets closes the peer's listener and every open connection.
func (p *tcpPeer) shutdownSockets() {
	if p.ln != nil {
		p.ln.Close()
	}
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// acceptLoop takes inbound connections and spawns frame readers.
func (p *tcpPeer) acceptLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.net.wg.Add(1)
		go p.readLoop(conn, &p.net.wg)
	}
}

// readLoop decodes frames off one connection into the peer's inbox,
// through a buffer: a frame's prefix and payload, and every frame that
// has arrived behind it, come out of the socket in one read.
func (p *tcpPeer) readLoop(conn net.Conn, wg *sync.WaitGroup) {
	defer wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		m, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		select {
		case p.inbox <- tcpWork{msg: m}:
		case <-p.gone:
			return
		case <-p.net.closed:
			return
		}
	}
}

// workLoop is the peer's single protocol goroutine. A departing peer
// switches to the retired state instead of exiting, so control closures
// racing the departure always complete.
func (p *tcpPeer) workLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-p.net.closed:
			return
		case w := <-p.inbox:
			if w.ctrl != nil {
				w.ctrl()
			} else {
				p.handleWire(w.msg)
			}
			if p.departing {
				close(p.gone)
				p.retired()
				return
			}
		}
	}
}

// retired services control closures (only) until network shutdown;
// protocol frames are the departure's in-flight losses.
func (p *tcpPeer) retired() {
	for {
		select {
		case <-p.net.closed:
			return
		case w := <-p.inbox:
			if w.ctrl != nil {
				w.ctrl()
			}
		}
	}
}

// post and tryPost put a control callback in the inbox (shell).
func (p *tcpPeer) post(ctx context.Context, fn func()) error {
	select {
	case p.inbox <- tcpWork{ctrl: fn}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.net.closed:
		return ErrClosed
	}
}

func (p *tcpPeer) tryPost(fn func()) {
	select {
	case p.inbox <- tcpWork{ctrl: fn}:
	default:
	}
}

func (p *tcpPeer) handleWire(m wire.Message) {
	var acts []cup.Action
	switch v := m.(type) {
	case wire.Query:
		acts = p.query(v.From, v.Key, v.QueryID)
	case wire.UpdateMsg:
		acts = p.update(v.From, v.Update)
	case wire.ClearBit:
		acts = p.clearBit(v.From, v.Key)
	case wire.Hello:
		// Connection identification only; nothing protocol-visible.
	}
	p.dispatch(acts)
}

func (p *tcpPeer) dispatch(acts []cup.Action) {
	for _, a := range acts {
		switch a.Kind {
		case cup.ActSendQuery:
			atomic.AddUint64(&p.net.stats.QueryMsgs, 1)
			p.sendWire(a.To, wire.Query{From: p.id, Key: a.Key, QueryID: a.QueryID})
		case cup.ActSendUpdate:
			atomic.AddUint64(&p.net.stats.UpdateMsgs, 1)
			p.sendWire(a.To, wire.UpdateMsg{From: p.id, Update: a.Update})
		case cup.ActSendClearBit:
			atomic.AddUint64(&p.net.stats.ClearBitMsgs, 1)
			p.sendWire(a.To, wire.ClearBit{From: p.id, Key: a.Key})
		case cup.ActDeliverLocal:
			p.deliver(a.Key, a.Entries)
		}
	}
}

// sendWire writes a frame on the persistent connection to a neighbor,
// dialing on first use. Failures drop the message and the connection —
// CUP tolerates lost updates by falling back to expiration (§2.8), and a
// lost query is re-issued by the client. A departed peer's listener is
// closed, so frames to it fail the dial and drop, mirroring §2.9
// in-flight losses.
func (p *tcpPeer) sendWire(to overlay.NodeID, m wire.Message) {
	conn, err := p.connTo(to)
	if err != nil {
		return
	}
	if p.frame, err = wire.AppendFrame(p.frame[:0], m); err == nil {
		_, err = conn.Write(p.frame)
	}
	if err != nil {
		p.mu.Lock()
		if p.conns[to] == conn {
			delete(p.conns, to)
		}
		p.mu.Unlock()
		conn.Close()
	}
}

func (p *tcpPeer) connTo(to overlay.NodeID) (net.Conn, error) {
	target := p.net.peerAt(to)
	if target == nil {
		return nil, fmt.Errorf("live: no peer %v", to)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.conns[to]; ok {
		return c, nil
	}
	c, err := net.DialTimeout("tcp", target.ln.Addr().String(), 2*time.Second)
	if err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(c, wire.Hello{From: p.id}); err != nil {
		c.Close()
		return nil, err
	}
	p.conns[to] = c
	return c, nil
}

// Lookup answers a local client's query for key at peer id; see
// Network.Lookup — the two share one implementation.
func (tn *TCPNetwork) Lookup(ctx context.Context, id overlay.NodeID, key overlay.Key) ([]cache.Entry, error) {
	p := tn.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: lookup at unknown node %v", id)
	}
	return p.lookup(ctx, key)
}

// controlNode runs fn on peer id's goroutine and blocks until it
// completes, ctx cancels, or the network closes.
func (tn *TCPNetwork) controlNode(ctx context.Context, id overlay.NodeID, fn func(*cup.Node)) error {
	p := tn.peerAt(id)
	if p == nil {
		return fmt.Errorf("live: control of unknown node %v", id)
	}
	return p.run(ctx, func() { fn(p.node) })
}

// atAuthority returns key's authority peer; see Network.atAuthority.
func (tn *TCPNetwork) atAuthority(key overlay.Key) (*tcpPeer, error) {
	id := tn.Authority(key)
	if p := tn.peerAt(id); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("live: control of unknown node %v", id)
}

// AddReplica installs an index entry at the authority and announces it.
func (tn *TCPNetwork) AddReplica(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = tn.AddReplicaCtx(context.Background(), key, replica, addr, lifetime)
}

// AddReplicaCtx is AddReplica with cancellation.
func (tn *TCPNetwork) AddReplicaCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return tn.replicaEvent(ctx, key, replica, addr, lifetime, cup.Append)
}

// Refresh extends (key, replica)'s lifetime, propagating to subscribers.
func (tn *TCPNetwork) Refresh(key overlay.Key, replica int, addr string, lifetime time.Duration) {
	_ = tn.RefreshCtx(context.Background(), key, replica, addr, lifetime)
}

// RefreshCtx is Refresh with cancellation.
func (tn *TCPNetwork) RefreshCtx(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration) error {
	return tn.replicaEvent(ctx, key, replica, addr, lifetime, cup.Refresh)
}

func (tn *TCPNetwork) replicaEvent(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration, ty cup.UpdateType) error {
	p, err := tn.atAuthority(key)
	if err != nil {
		return err
	}
	return p.replicaEvent(ctx, key, replica, addr, lifetime, ty)
}

// RemoveReplica deletes (key, replica) at the authority and propagates a
// Delete update.
func (tn *TCPNetwork) RemoveReplica(key overlay.Key, replica int) {
	_ = tn.RemoveReplicaCtx(context.Background(), key, replica)
}

// RemoveReplicaCtx is RemoveReplica with cancellation.
func (tn *TCPNetwork) RemoveReplicaCtx(ctx context.Context, key overlay.Key, replica int) error {
	p, err := tn.atAuthority(key)
	if err != nil {
		return err
	}
	return p.removeReplica(ctx, key, replica)
}

// SetCapacity adjusts a peer's outgoing update capacity fraction.
func (tn *TCPNetwork) SetCapacity(id overlay.NodeID, c float64) {
	_ = tn.controlNode(context.Background(), id, func(node *cup.Node) { node.SetCapacity(c) })
}

// Inspect runs fn on node id's goroutine with exclusive access to its
// protocol state.
func (tn *TCPNetwork) Inspect(id overlay.NodeID, fn func(*cup.Node)) {
	_ = tn.controlNode(context.Background(), id, fn)
}

// PumpTraffic replays a Traffic stream against the TCP peers — the same
// scenario engine as the goroutine transport.
func (tn *TCPNetwork) PumpTraffic(ctx context.Context, tr cup.Traffic, env cup.TrafficEnv, timeScale float64) error {
	return pumpTraffic(ctx, tn, tr, env, timeScale)
}

// RunFaults replays fault scripts against the TCP peers; a failing
// intervention aborts with a descriptive error.
func (tn *TCPNetwork) RunFaults(ctx context.Context, faults []cup.Fault, surf cup.FaultSurface, start, duration, timeScale float64) error {
	return runFaults(ctx, tn, faults, surf, start, duration, timeScale)
}

// FaultSurface builds the fault control plane over this network.
func (tn *TCPNetwork) FaultSurface(keys []overlay.Key, replicas int, lifetime time.Duration, rng *rand.Rand) cup.FaultSurface {
	return &liveSurface{ep: tn, keys: keys, replicas: replicas, lifetime: lifetime, rng: rng}
}

// --- runtime membership churn (§2.9) ----------------------------------

func (tn *TCPNetwork) lov() *lockedOverlay { return tn.ov }

func (tn *TCPNetwork) invalidateRoutes() { tn.router.Invalidate() }

func (tn *TCPNetwork) slots() int { return tn.Size() }

func (tn *TCPNetwork) aliveSlot(id overlay.NodeID) bool { return tn.IsAlive(id) }

func (tn *TCPNetwork) spawnMember(id overlay.NodeID) error {
	// One more listener against the shared budget; released on any
	// failure so churn keeps the ledger balanced.
	if err := acquirePorts(1); err != nil {
		return err
	}
	p, err := tn.newTCPPeer(id)
	if err != nil {
		releasePorts(1)
		return err
	}
	tn.peersMu.Lock()
	old := *tn.peers.Load()
	if int(id) != len(old) {
		tn.peersMu.Unlock()
		p.shutdownSockets()
		releasePorts(1)
		return fmt.Errorf("live: spawn of non-dense node id %v (have %d slots)", id, len(old))
	}
	grown := append(old[:len(old):len(old)], p)
	tn.peers.Store(&grown)
	tn.peersMu.Unlock()
	tn.portsMu.Lock()
	tn.ports++
	tn.portsMu.Unlock()
	tn.wg.Add(2)
	go p.acceptLoop(&tn.wg)
	go p.workLoop(&tn.wg)
	return nil
}

func (tn *TCPNetwork) retireMember(ctx context.Context, id overlay.NodeID) ([]cache.Entry, error) {
	p := tn.peerAt(id)
	if p == nil {
		return nil, fmt.Errorf("live: retire of unknown node %v", id)
	}
	entries, err := p.depart(ctx)
	if err != nil {
		return nil, err
	}
	// The departed peer's sockets close now: dials to it fail and its
	// budget reservation returns to the pool.
	p.shutdownSockets()
	tn.portsMu.Lock()
	if tn.ports > 0 {
		tn.ports--
		releasePorts(1)
	}
	tn.portsMu.Unlock()
	return entries, nil
}

func (tn *TCPNetwork) emitMembership(kind cup.EventKind, id overlay.NodeID) {
	if tn.cfg.Observer == nil {
		return
	}
	tn.cfg.Observer.OnEvent(cup.Event{Kind: kind, Time: tn.now(), Node: id, Peer: overlay.NoNode})
}

func (tn *TCPNetwork) countChurn(join bool) {
	if join {
		atomic.AddUint64(&tn.stats.Joins, 1)
	} else {
		atomic.AddUint64(&tn.stats.Leaves, 1)
	}
}

// Join adds one TCP peer to the running network (§2.9 arrivals); see
// Network.Join.
func (tn *TCPNetwork) Join(ctx context.Context) (overlay.NodeID, error) {
	return churnJoin(ctx, tn)
}

// Leave retires TCP peer id (§2.9 departures); see Network.Leave.
func (tn *TCPNetwork) Leave(ctx context.Context, id overlay.NodeID) error {
	return churnLeave(ctx, tn, id)
}
