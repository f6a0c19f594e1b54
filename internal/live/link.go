package live

import (
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

// chanLink joins peers in memory: a send is delivered after the
// network's per-hop delay, on the hop timer's goroutine. Deliveries
// racing a Close are dropped, mirroring a network partition at shutdown.
type chanLink struct{}

func (chanLink) open(*peer) error { return nil }

// ledger: runs at every departure and Close, but has no statement to count.
func (chanLink) close(*peer) {}

// hold copies u: a send's delivery runs after the hop delay, when the
// next handler has overwritten u.
func (chanLink) hold(u *cup.Update) *cup.Update {
	c := *u
	return &c
}

func (chanLink) send(from *peer, to overlay.NodeID, m message) {
	n := from.net
	time.AfterFunc(n.cfg.HopDelay, func() {
		if p := n.peerAt(to); p != nil {
			p.receive(m)
		}
	})
}
