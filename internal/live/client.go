package live

import (
	"context"
	"fmt"
	"time"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// shell is what the shared half of a peer needs from its transport: a
// way onto the peer's goroutine, and a way to put protocol actions on
// the network.
type shell interface {
	// post queues fn to run on the peer's goroutine, waiting for room in
	// the inbox until ctx is done or the network closes.
	post(ctx context.Context, fn func()) error
	// tryPost queues fn only if the inbox has room right now.
	tryPost(fn func())
	// dispatch sends a handler's actions; local deliveries come back
	// through clientEnd.deliver.
	dispatch(acts []cup.Action)
}

// clientEnd is the half of a live peer that faces its local clients and
// keeps the hit view in step with the protocol node: lookups, the open
// connections awaiting an answer, control callbacks, and the calls into
// the node that must be bracketed by the view's credit/publish rule.
// Both transports embed it, so there is one Lookup and one place where
// the rule is applied. Everything but lookup and forget runs on the
// peer's goroutine.
type clientEnd struct {
	id   overlay.NodeID
	node *cup.Node
	view hitView
	sh   shell
	now  func() sim.Time
	obs  cup.Observer
	// closed is the network's shutdown broadcast.
	closed <-chan struct{}
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
	// departing is set on the peer's own goroutine by retireMember; the
	// loop observes it after the control callback and switches to the
	// retired state.
	departing bool
}

func newClientEnd(id overlay.NodeID, cfg Config, router cup.Router, now func() sim.Time, sh shell, closed <-chan struct{}) clientEnd {
	node := cup.NewNode(id, cfg.Node, router, now)
	node.SetObserver(cfg.Observer)
	return clientEnd{
		id:      id,
		node:    node,
		view:    hitView{node: node, now: now},
		sh:      sh,
		now:     now,
		obs:     cfg.Observer,
		closed:  closed,
		waiters: make(map[overlay.Key][]chan []cache.Entry),
		gone:    make(chan struct{}),
	}
}

// query, update and clearBit are the node's handlers with the view's
// rule around them: hits the view served are credited before the
// handler can read the key's popularity or settle its justification,
// and the one handler that changes a client answer republishes it.

func (c *clientEnd) query(from overlay.NodeID, key overlay.Key, qid uint64) []cup.Action {
	c.view.credit(key)
	return c.node.HandleQuery(from, key, qid)
}

func (c *clientEnd) update(from overlay.NodeID, u cup.Update) []cup.Action {
	c.view.credit(u.Key)
	acts := c.node.HandleUpdate(from, u)
	c.view.publish(u.Key, false)
	return acts
}

func (c *clientEnd) clearBit(from overlay.NodeID, key overlay.Key) []cup.Action {
	c.view.credit(key)
	return c.node.HandleClearBit(from, key)
}

// deliver hands a local answer to every open connection for key and
// publishes it: from here on, and until an entry expires, lookups for
// key at this peer are served from the view.
func (c *clientEnd) deliver(key overlay.Key, entries []cache.Entry) {
	for _, reply := range c.waiters[key] {
		// Cannot block: reply is buffered(1), owned by exactly one lookup,
		// and leaves the map before a second send could happen.
		reply <- entries //cup:allowblocking
	}
	delete(c.waiters, key)
	c.view.publish(key, true)
}

// run executes fn on the peer's goroutine with exclusive access to its
// protocol state and blocks until it completes, ctx cancels, or the
// network closes. On cancellation fn may still run later — it was
// already queued — but the caller stops waiting. fn may read or change
// any key's state (Inspect, churn hand-over, a flush), so the whole view
// is credited before it and republished after it: cost proportional to
// the slots, paid by these rare callers and not by the query path.
func (c *clientEnd) run(ctx context.Context, fn func()) error {
	return c.exec(ctx, "", true, fn)
}

// runKey is run for a callback that reads and changes the client answer
// and query accounting of key alone.
func (c *clientEnd) runKey(ctx context.Context, key overlay.Key, fn func()) error {
	return c.exec(ctx, key, false, fn)
}

func (c *clientEnd) exec(ctx context.Context, key overlay.Key, allKeys bool, fn func()) error {
	done := make(chan struct{})
	err := c.sh.post(ctx, func() {
		defer close(done)
		if !allKeys {
			c.view.credit(key)
			fn()
			c.view.publish(key, false)
			return
		}
		c.view.creditAll()
		fn()
		if c.departing {
			c.view.retire()
		} else {
			c.view.publishAll()
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
	case <-c.closed:
		return ErrClosed
	}
}

// replicaEvent installs (key, replica) in this peer's local directory —
// it is the key's authority — and propagates the birth or refresh.
func (c *clientEnd) replicaEvent(ctx context.Context, key overlay.Key, replica int, addr string, lifetime time.Duration, ty cup.UpdateType) error {
	life := sim.Duration(lifetime.Seconds())
	return c.runKey(ctx, key, func() {
		e := cache.Entry{Key: key, Replica: replica, Addr: addr, Expires: c.now().Add(life)}
		c.node.InstallLocal(e)
		c.sh.dispatch(c.node.OriginateUpdate(cup.Update{
			Key: key, Type: ty, Entries: []cache.Entry{e}, Replica: replica,
			Expires: e.Expires, Lifetime: life,
		}))
	})
}

// removeReplica deletes (key, replica) from this peer's local directory
// and propagates a Delete update so caches do not serve the dead replica
// until expiry.
func (c *clientEnd) removeReplica(ctx context.Context, key overlay.Key, replica int) error {
	return c.runKey(ctx, key, func() {
		c.node.RemoveLocal(key, replica)
		c.sh.dispatch(c.node.OriginateUpdate(cup.Update{
			Key: key, Type: cup.Delete, Replica: replica,
			Expires: c.now().Add(sim.Duration(3600)),
		}))
	})
}

// depart collects the peer's local directory for hand-over and marks the
// peer departing; the transport's loop closes gone once the callback
// returns.
func (c *clientEnd) depart(ctx context.Context) ([]cache.Entry, error) {
	var entries []cache.Entry
	err := c.run(ctx, func() {
		dir := c.node.LocalDirectory()
		for _, k := range dir.Keys() {
			entries = append(entries, dir.All(k)...)
			dir.RemoveKey(k)
		}
		c.departing = true
	})
	if err != nil {
		return nil, err
	}
	// Wait for the goroutine to acknowledge (gone closes) so later
	// aliveness checks — and the hand-over that follows — observe the
	// departure.
	select {
	case <-c.gone:
		return entries, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
}

// lookup answers a local client's query for key: from the view when the
// peer has published a fresh answer, otherwise by posting the query to
// the peer's goroutine and waiting for the entries (or ctx
// cancellation). A cancelled lookup deregisters its open connection, so
// abandoned queries on a slow or partitioned network do not accumulate
// state.
func (c *clientEnd) lookup(ctx context.Context, key overlay.Key) ([]cache.Entry, error) {
	if entries := c.hit(key); entries != nil {
		return entries, nil
	}
	select {
	case <-c.gone:
		return nil, fmt.Errorf("live: lookup at departed node %v", c.id)
	default:
	}
	reply := make(chan []cache.Entry, 1)
	err := c.sh.post(ctx, func() {
		if c.departing {
			// Departed between the aliveness race and the callback's turn:
			// answer empty rather than strand the waiter.
			reply <- nil //cup:allowblocking (buffered(1), sole send)
			return
		}
		acts := c.query(cup.LocalClient, key, 0)
		// A synchronous answer arrives as a DeliverLocal action; register
		// the waiter first so both paths converge.
		c.waiters[key] = append(c.waiters[key], reply)
		c.sh.dispatch(acts)
	})
	if err != nil {
		return nil, err
	}
	select {
	case entries := <-reply:
		return entries, nil
	case <-c.gone:
		// The peer departed with the query open; its state is gone.
		return nil, fmt.Errorf("live: node %v departed during lookup", c.id)
	case <-ctx.Done():
		c.forget(key, reply)
		return nil, ctx.Err()
	case <-c.closed:
		return nil, ErrClosed
	}
}

// hit serves key from the view: a lock-free read from the caller's
// goroutine, the query's two events emitted from there too (observers on
// a live network are concurrency-safe by contract), and the hit left on
// the slot for the peer goroutine to credit. A closed network, a
// departed peer and anything but an all-fresh published set return nil,
// and the lookup takes the mailbox.
//
//cup:hotpath
func (c *clientEnd) hit(key overlay.Key) []cache.Entry {
	select {
	case <-c.closed:
		return nil
	default:
	}
	now := c.now()
	entries := c.view.read(key, now)
	if entries == nil || c.obs == nil {
		return entries
	}
	c.obs.OnEvent(cup.Event{Kind: cup.EvQueryIssued, Time: now, Node: c.id, Peer: cup.LocalClient, Key: key})
	c.obs.OnEvent(cup.Event{Kind: cup.EvQueryAnswered, Time: now, Node: c.id, Peer: cup.LocalClient, Key: key, Entries: len(entries)})
	return entries
}

// forget asks the peer to drop a cancelled lookup's open connection.
// Best-effort and non-blocking: if the inbox is saturated, the buffered
// reply channel still keeps a late answer from blocking the peer
// goroutine.
func (c *clientEnd) forget(key overlay.Key, reply chan []cache.Entry) {
	c.sh.tryPost(func() {
		ws := c.waiters[key]
		for i, w := range ws {
			if w == reply {
				c.waiters[key] = append(ws[:i], ws[i+1:]...)
				break
			}
		}
		if len(c.waiters[key]) == 0 {
			delete(c.waiters, key)
		}
	})
}

// isGone reports whether the peer has departed.
func (c *clientEnd) isGone() bool {
	select {
	case <-c.gone:
		return true
	default:
		return false
	}
}
