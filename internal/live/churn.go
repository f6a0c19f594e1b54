package live

import (
	"context"
	"sync"

	"cup/internal/cache"
	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/sim"
)

// Runtime churn (§2.9) is cup.Churn over running peers: each per-node
// step runs on the peer's goroutine, a join spawns a peer and a leave
// retires one, on every link. What this file adds is locking:
// lockedOverlay makes the overlay, which is not thread-safe, safe for
// routing reads from peer goroutines while membership changes. Reads take
// the read lock, JoinRand and Leave the write lock for the instant of the
// substrate mutation; churn drives it as its cup.DynamicOverlay.
type lockedOverlay struct {
	mu  sync.RWMutex
	ov  overlay.Overlay
	dyn cup.DynamicOverlay // ov's churn capability; nil on a static substrate
}

func (l *lockedOverlay) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.Size()
}

func (l *lockedOverlay) Owner(k overlay.Key) overlay.NodeID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.Owner(k)
}

func (l *lockedOverlay) NextHop(n overlay.NodeID, k overlay.Key) (overlay.NodeID, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ov.NextHop(n, k)
}

// Neighbors returns a copy: the substrate's own slice is only valid until
// the next Join or Leave, which edits it in place once the read lock is
// released.
func (l *lockedOverlay) Neighbors(n overlay.NodeID) []overlay.NodeID {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]overlay.NodeID(nil), l.ov.Neighbors(n)...)
}

func (l *lockedOverlay) Alive(id overlay.NodeID) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.dyn.Alive(id)
}

func (l *lockedOverlay) JoinRand(rnd *sim.Rand) overlay.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dyn.JoinRand(rnd)
}

func (l *lockedOverlay) Leave(id overlay.NodeID) overlay.NodeID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dyn.Leave(id)
}

// Join adds a peer to the running network (cup.Churn.Join) and returns
// its ID. It fails on a closed network and on a static overlay.
func (n *Network) Join(ctx context.Context) (overlay.NodeID, error) {
	n.churnMu.Lock()
	defer n.churnMu.Unlock()
	if n.IsClosed() {
		return 0, ErrClosed // before the substrate grows a member nobody will host
	}
	return n.churn.Join(members{n, ctx})
}

// Leave retires peer victim (cup.Churn.Leave). It fails on a static
// overlay, an unknown or already-departed node, and the last member.
func (n *Network) Leave(ctx context.Context, victim overlay.NodeID) error {
	n.churnMu.Lock()
	defer n.churnMu.Unlock()
	_, err := n.churn.Leave(members{n, ctx}, victim)
	return err
}

// members is the network as the choreography drives it, within one
// caller's ctx.
type members struct {
	*Network
	ctx context.Context
}

func (m members) Alive(id overlay.NodeID) bool { return m.IsAlive(id) }

func (m members) At(id overlay.NodeID, fn func(*cup.Node)) error {
	return m.controlNode(m.ctx, id, fn)
}

func (m members) Spawn(id overlay.NodeID) error { return m.spawn(id) }

// Retire departs the peer (peer.depart), then the link lets go of it: on
// TCP, dials to it fail and its budget reservation returns to the pool.
func (m members) Retire(id overlay.NodeID) (*cache.Store, error) {
	p := m.peerAt(id)
	dir, err := p.depart(m.ctx)
	if err == nil {
		m.link.close(p)
	}
	return dir, err
}

func (m members) Changed(kind cup.EventKind, id overlay.NodeID) {
	if obs := m.cfg.Observer; obs != nil {
		obs.OnEvent(cup.Event{Kind: kind, Time: m.Now(), Node: id, Peer: overlay.NoNode})
	}
}
