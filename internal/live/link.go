package live

import (
	"runtime"
	"sync"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

// link is everything that differs between the live transports: how one
// message reaches peer N, and what a peer needs opened and closed around
// that. The network, the peer, Lookup and churn are shared code above it,
// and so is the scenario replay that drives a Network. Both links hand
// what arrives to peer.receive, on the goroutine that delivers it.
type link interface {
	// open prepares p to send and receive, before it joins the peer table.
	open(p *peer) error
	// send puts m on its way from from to peer to. Best effort: a lost
	// update is recovered by expiry (§2.8), a lost query is re-issued by
	// the client, and a departed or unknown peer drops what is sent to it
	// as in-flight loss (§2.9). Only the holder of from's lock calls it.
	send(from *peer, to overlay.NodeID, m message)
	// hold returns what the sends of one handler result carry for u, the
	// owner's out-update, which the owner's next handler overwrites: u
	// itself if send is done with it on return, or a copy they share.
	hold(u *cup.Update) *cup.Update
	// close releases what open took for p. Idempotent; called when p
	// departs and again for every peer at network shutdown.
	close(p *peer)
}

// chanLink joins peers in memory. A send waits out the network's hop
// delay in the FIFO of its receiver's shard (receiver id modulo the
// shard count), and the shard's one long-lived goroutine delivers it.
// The hop delay is constant, so send order is due order, and a pair's
// messages arrive in send order, as on TCP and in the simulator's lane.
// A send only enqueues, so no cycle of waits can form through the queue.
// Close stops the drainers and drops what is queued, as a network
// partition at shutdown would.
type chanLink struct{ shards []hopQueue }

type hopQueue struct {
	mu     sync.Mutex
	queued []hop
	wake   chan struct{} // holds a token once a send finds queued empty
}

// hop is a message on its way to peer to, due at due since boot.
type hop struct {
	due time.Duration
	to  overlay.NodeID
	m   message
}

// hopBacklog is the shard backlog past which a send yields to its drainer.
const hopBacklog = 256

// start gives the link one shard per GOMAXPROCS and runs each shard's
// drainer, counted in n.wg, until n closes.
func (l *chanLink) start(n *Network) {
	l.shards = make([]hopQueue, runtime.GOMAXPROCS(0))
	n.wg.Add(len(l.shards))
	for i := range l.shards {
		l.shards[i].wake = make(chan struct{}, 1)
		go l.shards[i].drain(n)
	}
}

func (*chanLink) open(*peer) error { return nil }

// ledger: runs at every departure and Close, but has no statement to count.
func (*chanLink) close(*peer) {}

// hold copies u: a send's delivery runs after the hop delay, when the
// next handler has overwritten u.
func (*chanLink) hold(u *cup.Update) *cup.Update {
	c := *u
	return &c
}

func (l *chanLink) send(from *peer, to overlay.NodeID, m message) {
	n := from.net
	q := &l.shards[int(to)%len(l.shards)]
	q.mu.Lock()
	q.queued = append(q.queued, hop{due: time.Since(n.start) + n.cfg.HopDelay, to: to, m: m})
	queued := len(q.queued)
	q.mu.Unlock()
	if queued == 1 {
		select {
		case q.wake <- struct{}{}:
		default: // a token is already waiting
		}
	} else if queued > hopBacklog {
		// The sender outruns the drainer: yield to it, so a loop of control
		// calls cannot grow the FIFO, and every hop's wait behind it,
		// without bound. Yielding never blocks: safe under a peer's lock.
		runtime.Gosched()
	}
}

// drain delivers q's messages in send order, each once it is due, until
// n closes. It takes the whole queue at once and leaves behind the batch
// it emptied last, so the two buffers are reused.
func (q *hopQueue) drain(n *Network) {
	defer n.wg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var batch []hop
	for {
		q.mu.Lock()
		batch, q.queued = q.queued, batch[:0]
		q.mu.Unlock()
		if len(batch) == 0 {
			select {
			case <-q.wake:
				continue
			case <-n.closed:
				return
			}
		}
		for i := range batch {
			if wait := batch[i].due - time.Since(n.start); wait > 0 {
				timer.Reset(wait)
				select {
				case <-timer.C:
				case <-n.closed:
					return
				}
			}
			if p := n.peerAt(batch[i].to); p != nil {
				p.receive(batch[i].m)
			}
			batch[i] = hop{} // its key and update are garbage now
		}
	}
}
