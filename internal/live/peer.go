package live

import (
	"context"
	"fmt"
	"sync/atomic"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// peer is one protocol node of a live network — the only kind there is:
// a mailbox serializing all protocol work onto one goroutine, and the
// half that faces local clients and keeps the hit view in step with the
// protocol node: lookups, the open connections awaiting an answer,
// control callbacks, and the calls into the node that must be bracketed
// by the view's credit/publish rule. There is one Lookup and one place
// where the rule is applied, whatever the link. Everything but lookup,
// hit and forget runs on the peer's goroutine.
type peer struct {
	id    overlay.NodeID
	net   *Network
	node  *cup.Node
	view  hitView
	now   func() sim.Time
	inbox chan message
	// waiters holds the local lookups awaiting an answer, so responses
	// fan out to every open client connection and cancelled lookups can
	// deregister instead of leaking. Each channel is buffered(1) and owned
	// by one lookup, so an answer racing a cancellation never blocks the
	// peer goroutine.
	waiters map[overlay.Key][]chan []cache.Entry
	// gone closes when the peer departs (§2.9): sends to it are dropped
	// as in-flight losses and lookups at it fail fast. The slot stays in
	// the network's peer table — IDs are dense and never reused.
	gone chan struct{}
	// departing is set on the peer's own goroutine by depart; the loop
	// observes it after the control callback and switches to the retired
	// state.
	departing bool
	// sock is the TCP link's listener and connections for this peer; nil
	// on the goroutine link.
	sock *sock
}

// newPeer constructs (but does not start) one node of n.
func newPeer(n *Network, id overlay.NodeID, router cup.Router, now func() sim.Time) *peer {
	node := cup.NewNode(id, n.cfg.Node, router, now)
	node.SetObserver(n.cfg.Observer)
	return &peer{
		id:      id,
		net:     n,
		node:    node,
		view:    hitView{node: node, now: now},
		now:     now,
		inbox:   make(chan message, n.cfg.InboxDepth),
		waiters: make(map[overlay.Key][]chan []cache.Entry),
		gone:    make(chan struct{}),
	}
}

// loop is the peer goroutine: one message at a time through the protocol
// state machine, actions dispatched back onto the network. A departing
// peer switches to the retired state instead of exiting so that control
// messages racing the departure always complete.
func (p *peer) loop() {
	defer p.net.wg.Done()
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

// post queues fn to run on the peer's goroutine, waiting for room in the
// inbox until ctx is done or the network closes.
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

// tryPost queues fn only if the inbox has room right now.
func (p *peer) tryPost(fn func()) {
	select {
	case p.inbox <- message{kind: msgControl, ctrl: fn}:
	default:
	}
}

// dispatch puts a handler's actions on the network through the link;
// local deliveries go to the waiting clients.
func (p *peer) dispatch(acts []cup.Action) {
	for i := range acts {
		a := &acts[i]
		switch a.Kind {
		case cup.ActSendQuery:
			atomic.AddUint64(&p.net.stats.QueryMsgs, 1)
			p.net.link.send(p, a.To, message{kind: msgQuery, from: p.id, key: a.Key, qid: a.QueryID})
		case cup.ActSendUpdate:
			atomic.AddUint64(&p.net.stats.UpdateMsgs, 1)
			p.net.link.send(p, a.To, message{kind: msgUpdate, from: p.id, key: a.Key, update: *a.Update})
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

func (p *peer) update(from overlay.NodeID, u cup.Update) []cup.Action {
	p.view.credit(u.Key)
	acts := p.node.HandleUpdate(from, u)
	p.view.publish(u.Key, false)
	return acts
}

func (p *peer) clearBit(from overlay.NodeID, key overlay.Key) []cup.Action {
	p.view.credit(key)
	return p.node.HandleClearBit(from, key)
}

// deliver hands a local answer to every open connection for key and
// publishes it: from here on, and until an entry expires, lookups for
// key at this peer are served from the view.
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
	p.view.publish(key, true)
}

// run executes fn on the peer's goroutine with exclusive access to its
// protocol state and blocks until it completes, ctx cancels, or the
// network closes. On cancellation fn may still run later — it was
// already queued — but the caller stops waiting. fn may read or change
// any key's state (Inspect, churn hand-over, a flush), so the whole view
// is credited before it and republished after it: cost proportional to
// the slots, paid by these rare callers and not by the query path.
func (p *peer) run(ctx context.Context, fn func()) error {
	return p.exec(ctx, "", true, fn)
}

// runKey is run for a callback that reads and changes the client answer
// and query accounting of key alone.
func (p *peer) runKey(ctx context.Context, key overlay.Key, fn func()) error {
	return p.exec(ctx, key, false, fn)
}

func (p *peer) exec(ctx context.Context, key overlay.Key, allKeys bool, fn func()) error {
	done := make(chan struct{})
	err := p.post(ctx, func() {
		defer close(done)
		if !allKeys {
			p.view.credit(key)
			fn()
			p.view.publish(key, false)
			return
		}
		p.view.creditAll()
		fn()
		if p.departing {
			p.view.retire()
		} else {
			p.view.publishAll()
		}
	})
	if err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.net.closed:
		return ErrClosed
	}
}

// replicaEvent applies a replica's birth, refresh or deletion at this
// peer — the key's authority — and propagates it (cup.Node.ReplicaEvent).
func (p *peer) replicaEvent(ctx context.Context, ty cup.UpdateType, key overlay.Key, replica int, addr string, lifetime sim.Duration) error {
	return p.runKey(ctx, key, func() {
		p.dispatch(p.node.ReplicaEvent(ty, key, replica, addr, lifetime))
	})
}

// depart takes the peer's local directory for hand-over and marks the
// peer departing in one callback, so no replica event lands between the
// two; the loop closes gone once the callback returns.
func (p *peer) depart(ctx context.Context) (*cache.Store, error) {
	var dir *cache.Store
	err := p.run(ctx, func() {
		dir = p.node.LocalDirectory().Take()
		p.departing = true
	})
	if err != nil {
		return nil, err
	}
	// Wait for the goroutine to acknowledge (gone closes) so later
	// aliveness checks — and the hand-over that follows — observe the
	// departure.
	select {
	case <-p.gone:
		return dir, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-p.net.closed:
		return nil, ErrClosed
	}
}

// lookup answers a local client's query for key: from the view when the
// peer has published a fresh answer, otherwise by posting the query to
// the peer's goroutine and waiting for the entries (or ctx
// cancellation). A cancelled lookup deregisters its open connection, so
// abandoned queries on a slow or partitioned network do not accumulate
// state.
func (p *peer) lookup(ctx context.Context, key overlay.Key) ([]cache.Entry, error) {
	if entries := p.hit(key); entries != nil {
		return entries, nil
	}
	select {
	case <-p.gone:
		return nil, fmt.Errorf("live: lookup at departed node %v", p.id)
	default:
	}
	reply := make(chan []cache.Entry, 1)
	err := p.post(ctx, func() {
		if p.departing {
			// Departed between the aliveness race and the callback's turn:
			// answer empty rather than strand the waiter.
			reply <- nil // buffered(1), sole send
			return
		}
		acts := p.query(cup.LocalClient, key, 0)
		// A synchronous answer arrives as a DeliverLocal action; register
		// the waiter first so both paths converge.
		p.waiters[key] = append(p.waiters[key], reply)
		p.dispatch(acts)
	})
	if err != nil {
		return nil, err
	}
	select {
	case entries := <-reply:
		return entries, nil
	case <-p.gone:
		// The peer departed with the query open; its state is gone.
		return nil, fmt.Errorf("live: node %v departed during lookup", p.id)
	case <-ctx.Done():
		p.forget(key, reply)
		return nil, ctx.Err()
	case <-p.net.closed:
		return nil, ErrClosed
	}
}

// hit serves key from the view: a lock-free read from the caller's
// goroutine, the query's two events emitted from there too (observers on
// a live network are concurrency-safe by contract), and the hit left on
// the slot for the peer goroutine to credit. A closed network, a
// departed peer and anything but an all-fresh published set return nil,
// and the lookup takes the mailbox.
func (p *peer) hit(key overlay.Key) []cache.Entry {
	select {
	case <-p.net.closed:
		return nil
	default:
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

// forget asks the peer to drop a cancelled lookup's open connection.
// Best-effort and non-blocking: if the inbox is saturated, the buffered
// reply channel still keeps a late answer from blocking the peer
// goroutine.
func (p *peer) forget(key overlay.Key, reply chan []cache.Entry) {
	p.tryPost(func() {
		ws := p.waiters[key]
		for i, w := range ws {
			if w == reply {
				p.waiters[key] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(p.waiters[key]) == 0 {
			delete(p.waiters, key)
		}
	})
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
