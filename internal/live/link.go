package live

import (
	"time"

	"cup/internal/overlay"
)

// link is everything that differs between the live transports: how one
// message reaches peer N, and what a peer needs opened and closed around
// that. The network, the peer, its loop, Lookup, churn and the scenario
// engine are shared code above it.
type link interface {
	// open prepares p to send and receive, before its goroutine starts.
	open(p *peer) error
	// send puts m on its way from from to peer to. Best effort: a lost
	// update is recovered by expiry (§2.8), a lost query is re-issued by
	// the client, and a departed or unknown peer drops what is sent to it
	// as in-flight loss (§2.9). Only from's goroutine calls it.
	send(from *peer, to overlay.NodeID, m message)
	// close releases what open took for p. Idempotent; called when p
	// departs and again for every peer at network shutdown.
	close(p *peer)
}

// chanLink joins peers by their Go channels: a send is an inbox send
// after the network's per-hop delay. Deliveries racing a Close are
// dropped, mirroring a network partition at shutdown.
type chanLink struct{}

func (chanLink) open(*peer) error { return nil }

// ledger: runs at every departure and Close, but has no statement to count.
func (chanLink) close(*peer) {}

func (chanLink) send(from *peer, to overlay.NodeID, m message) {
	n := from.net
	time.AfterFunc(n.cfg.HopDelay, func() {
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
