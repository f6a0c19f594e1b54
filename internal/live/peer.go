package live

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// peer is one protocol node of a live network — the only kind there is:
// a protocol node behind one lock, and the half that faces local clients
// and keeps the hit view in step with it: lookups, the open connections
// awaiting an answer, and the control calls. Whatever enters the node —
// a neighbour's message, a local client's miss, a control call — runs on
// the goroutine that brings it, under the lock, bracketed by the view's
// credit/publish rule. There is one Lookup and one place where the rule
// is applied, whatever the link. Everything but lookup and hit runs
// under the lock.
type peer struct {
	id   overlay.NodeID
	net  *Network
	node *cup.Node
	view hitView
	now  func() sim.Time
	// mu is the peer's lock: a one-slot channel, so that waiting for it
	// ends with the waiter's ctx or the network's Close even while its
	// holder is stuck in a TCP write.
	mu chan struct{}
	// load counts the goroutines waiting for mu — deliveries, lookups,
	// control calls: the work queued at the peer, which InboxLoad reports
	// against Config.InboxDepth.
	load atomic.Int32
	// waiters holds the local lookups awaiting an answer, so responses
	// fan out to every open client connection and cancelled lookups can
	// deregister instead of leaking. Each channel is buffered(1) and owned
	// by one lookup, so an answer racing a cancellation never blocks the
	// lock's holder.
	waiters map[overlay.Key][]chan []cache.Entry
	// gone closes when the peer departs (§2.9): sends to it are dropped
	// as in-flight losses and lookups at it fail fast. The slot stays in
	// the network's peer table — IDs are dense and never reused.
	gone chan struct{}
	// departing is set by depart, under the lock; from then on receive
	// discards what arrives.
	departing bool
	// sock is the TCP link's listener and connections for this peer; nil
	// on the goroutine link.
	sock *sock
}

// newPeer constructs one node of n; it starts nothing.
func newPeer(n *Network, id overlay.NodeID, router cup.Router, now func() sim.Time) *peer {
	node := cup.NewNode(id, n.cfg.Node, router, now)
	node.SetObserver(n.cfg.Observer)
	return &peer{
		id:      id,
		net:     n,
		node:    node,
		view:    hitView{node: node, now: now},
		now:     now,
		mu:      make(chan struct{}, 1),
		waiters: make(map[overlay.Key][]chan []cache.Entry),
		gone:    make(chan struct{}),
	}
}

// receive runs one message from a neighbour through the protocol state
// machine on the delivering goroutine — a shard's drainer on the
// goroutine link, a connection's reader on TCP — and dispatches the
// actions back onto the network. A departed peer discards what arrives,
// the departure's in-flight losses, and so does a closed network.
func (p *peer) receive(m message) {
	if p.lock(context.Background()) != nil {
		return
	}
	defer p.unlock()
	switch {
	case p.departing: // lost in flight
	case m.kind == msgQuery:
		p.dispatch(p.query(m.from, m.key, m.qid))
	case m.kind == msgUpdate:
		p.dispatch(p.update(m.from, m.update))
	default:
		p.dispatch(p.clearBit(m.from, m.key))
	}
}

// lock takes the peer's lock, waiting no longer than ctx allows or the
// network stays open; an ended ctx or a closed network is refused before
// a free lock is taken. A caller that has to wait counts in the peer's
// load while it does.
func (p *peer) lock(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p.net.IsClosed() {
		return ErrClosed
	}
	select {
	case p.mu <- struct{}{}:
		return nil
	default:
	}
	p.load.Add(1)
	defer p.load.Add(-1)
	select {
	case p.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.net.closed:
		return ErrClosed
	}
}

func (p *peer) unlock() { <-p.mu }

// locked runs fn on the caller's goroutine with exclusive access to the
// peer's protocol state, and returns when fn has, or without running it
// when ctx ends or the network closes before the lock is free. A key
// names the one key whose client answer and query accounting fn reads
// and changes: its hits are credited before fn and its answer
// republished after. The empty key is the whole node (Inspect, churn
// hand-over, a flush): every slot is credited before fn and republished
// after it, or retired if fn departed the peer — cost proportional to
// the slots, paid by these rare callers and not by the query path.
func (p *peer) locked(ctx context.Context, key overlay.Key, fn func()) error {
	if err := p.lock(ctx); err != nil {
		return err
	}
	defer p.unlock()
	if key != "" {
		p.view.credit(key)
		fn()
		p.view.publish(key, false)
		return nil
	}
	p.view.creditAll()
	fn()
	if p.departing {
		p.view.retire()
	} else {
		p.view.publishAll()
	}
	return nil
}

// dispatch puts a handler's actions on the network through the link;
// local deliveries go to the waiting clients. The update sends of one
// result share one Update, the owner's, which the link holds once for
// all of them.
func (p *peer) dispatch(acts []cup.Action) {
	var out, held *cup.Update
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case cup.ActSendQuery:
			atomic.AddUint64(&p.net.stats.QueryMsgs, 1)
			p.net.link.send(p, a.To, message{kind: msgQuery, from: p.id, key: a.Key, qid: a.QueryID})
		case cup.ActSendUpdate:
			atomic.AddUint64(&p.net.stats.UpdateMsgs, 1)
			if a.Update != out {
				out, held = a.Update, p.net.link.hold(a.Update)
			}
			p.net.link.send(p, a.To, message{kind: msgUpdate, from: p.id, key: a.Key, update: held})
		case cup.ActSendClearBit:
			atomic.AddUint64(&p.net.stats.ClearBitMsgs, 1)
			p.net.link.send(p, a.To, message{kind: msgClearBit, from: p.id, key: a.Key})
		case cup.ActDeliverLocal:
			p.deliver(a.Key, a.Entries)
		}
	}
}

// query, update and clearBit are the node's handlers with the view's
// rule around them: hits the view served are credited before the
// handler can read the key's popularity or settle its justification,
// and the one handler that changes a client answer republishes it.

func (p *peer) query(from overlay.NodeID, key overlay.Key, qid uint64) []cup.Action {
	p.view.credit(key)
	return p.node.HandleQuery(from, key, qid)
}

func (p *peer) update(from overlay.NodeID, u *cup.Update) []cup.Action {
	p.view.credit(u.Key)
	acts := p.node.HandleUpdate(from, *u)
	p.view.publish(u.Key, false)
	return acts
}

func (p *peer) clearBit(from overlay.NodeID, key overlay.Key) []cup.Action {
	p.view.credit(key)
	return p.node.HandleClearBit(from, key)
}

// deliver hands a local answer to every open connection for key and
// brings key's slot, if it has one, in line with it. It opens none: a
// slot opens on a hit under the lock (lookup), so a key answered only by
// a miss — asked once — holds no slot.
func (p *peer) deliver(key overlay.Key, entries []cache.Entry) {
	if len(p.waiters[key]) != 0 {
		p.node.MarkShipped(key) // the entries go to the waiting clients
	}
	for _, reply := range p.waiters[key] {
		// Cannot block: reply is buffered(1), owned by exactly one lookup,
		// and leaves the map before a second send could happen.
		reply <- entries
	}
	delete(p.waiters, key)
	p.view.publish(key, false)
}

// replicaEvent applies a replica's birth, refresh or deletion at this
// peer — the key's authority — and propagates it (cup.Node.ReplicaEvent).
func (p *peer) replicaEvent(ctx context.Context, ty cup.UpdateType, key overlay.Key, replica int, addr string, lifetime sim.Duration) error {
	return p.locked(ctx, key, func() {
		p.dispatch(p.node.ReplicaEvent(ty, key, replica, addr, lifetime))
	})
}

// depart takes the peer's local directory for hand-over and marks the
// peer departed under one hold of its lock, so no replica event lands
// between the two; once it returns, aliveness checks — and the hand-over
// that follows — observe the departure.
func (p *peer) depart(ctx context.Context) (*cache.Store, error) {
	var dir *cache.Store
	err := p.locked(ctx, "", func() {
		dir = p.node.LocalDirectory().Take()
		p.departing = true
		close(p.gone)
	})
	return dir, err
}

// lookup answers a local client's query for key: from the view when the
// peer has published a fresh answer, otherwise by running the query under
// the peer's lock on the caller's goroutine and waiting, unlocked, for
// the entries (or ctx cancellation). A query that hits under the lock
// opens key's slot, so from the key's second answered ask on, lookups are
// served from the view until an entry expires. A cancelled lookup
// deregisters its open connection, so abandoned queries on a slow or
// partitioned network do not accumulate state.
func (p *peer) lookup(ctx context.Context, key overlay.Key) ([]cache.Entry, error) {
	if entries := p.hit(key); entries != nil {
		return entries, nil
	}
	if err := p.lock(ctx); err != nil {
		return nil, err
	}
	if p.departing {
		p.unlock()
		return nil, fmt.Errorf("live: lookup at departed node %v", p.id)
	}
	// A synchronous answer — a hit — arrives as a DeliverLocal action;
	// the waiter is registered first so both paths converge.
	reply := make(chan []cache.Entry, 1)
	p.waiters[key] = append(p.waiters[key], reply)
	p.clientQuery(key)
	p.unlock()
	select {
	case entries := <-reply:
		return entries, nil
	case <-p.gone:
		// The peer departed with the query open; its state is gone.
		return nil, fmt.Errorf("live: node %v departed during lookup", p.id)
	case <-ctx.Done():
		go p.forget(key, reply)
		return nil, ctx.Err()
	case <-p.net.closed:
		return nil, ErrClosed
	}
}

// clientQuery runs a local client's query for key under the lock and
// dispatches its actions. A hit — the query answered at once — opens
// key's slot in the view.
func (p *peer) clientQuery(key overlay.Key) {
	acts := p.query(cup.LocalClient, key, 0)
	hit := len(acts) == 1 && acts[0].Kind == cup.ActDeliverLocal
	p.dispatch(acts)
	if hit {
		p.view.publish(key, true)
	}
}

// forget deregisters a cancelled lookup's waiter, or finds it answered
// and gone. It runs on a goroutine of its own, so the lookup returns at
// once while the lock is held elsewhere.
func (p *peer) forget(key overlay.Key, reply chan []cache.Entry) {
	if p.lock(context.Background()) != nil {
		return
	}
	defer p.unlock()
	ws := slices.DeleteFunc(p.waiters[key], func(w chan []cache.Entry) bool { return w == reply })
	if len(ws) == 0 {
		delete(p.waiters, key)
	} else {
		p.waiters[key] = ws
	}
}

// hit serves key from the view: a lock-free read from the caller's
// goroutine, the query's two events emitted from there too (observers on
// a live network are concurrency-safe by contract), and the hit left on
// the slot for the lock's next holder to credit. A closed network, a
// departed peer and anything but an all-fresh published set return nil,
// and the lookup takes the lock.
func (p *peer) hit(key overlay.Key) []cache.Entry {
	if p.net.IsClosed() {
		return nil
	}
	now := p.now()
	entries := p.view.read(key, now)
	obs := p.net.cfg.Observer
	if entries == nil || obs == nil {
		return entries
	}
	obs.OnEvent(cup.Event{Kind: cup.EvQueryIssued, Time: now, Node: p.id, Peer: cup.LocalClient, Key: key})
	obs.OnEvent(cup.Event{Kind: cup.EvQueryAnswered, Time: now, Node: p.id, Peer: cup.LocalClient, Key: key, Entries: len(entries)})
	return entries
}

// isGone reports whether the peer has departed.
func (p *peer) isGone() bool {
	select {
	case <-p.gone:
		return true
	default:
		return false
	}
}
