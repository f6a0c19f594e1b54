package live

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
)

// defaultCfg returns the standard CUP node configuration for TCP tests.
func defaultCfg() cup.Config { return cup.Defaults() }

func TestTCPSecondLookupIsCached(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 16, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	add(t, tn, "k", 0, "10.1.1.1", time.Hour)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var nid overlay.NodeID = 7
	if tn.Authority("k") == nid {
		nid = 8
	}
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("cached lookup took %v", d)
	}
}

func TestTCPRefreshReachesSubscriber(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 12, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	add(t, tn, "k", 0, "10.1.1.1", 300*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var nid overlay.NodeID = 4
	if tn.Authority("k") == nid {
		nid = 5
	}
	if _, err := tn.Lookup(ctx, nid, "k"); err != nil {
		t.Fatal(err)
	}
	if err := tn.RefreshCtx(ctx, "k", 0, "10.1.1.1", time.Hour); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // original entry now expired
	start := time.Now()
	entries, err := tn.Lookup(ctx, nid, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries after refresh = %+v", entries)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("post-refresh lookup walked the overlay (%v); refresh never arrived", d)
	}
}

func TestTCPInvalidSize(t *testing.T) {
	if _, err := NewTCPNetwork(Config{Nodes: 0, Seed: 1, Node: defaultCfg()}); err == nil {
		t.Fatal("0 peers accepted")
	}
}

// TestTCPBootFailureKeepsLedger: a network the port budget has no room
// for is refused before it binds anything, and the ledger is where it
// was.
func TestTCPBootFailureKeepsLedger(t *testing.T) {
	before := PortsInUse()
	hold := DefaultPortBudget - before - 3
	if err := acquirePorts(hold); err != nil {
		t.Fatal(err)
	}
	defer releasePorts(hold)
	if _, err := NewTCPNetwork(Config{Nodes: 4, Seed: 3}); err == nil || !strings.Contains(err.Error(), "port budget") {
		t.Fatalf("boot past the port budget: err = %v, want the exhausted budget named", err)
	}
	if got := PortsInUse(); got != before+hold {
		t.Fatalf("PortsInUse = %d after the refused boot, want %d", got, before+hold)
	}
}

// TestTCPJoinAndLeave: churn keeps the ledger balanced — a joiner takes
// one listener, a leaver gives one back.
func TestTCPJoinAndLeave(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 8, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	ctx := ctxShort(t)
	before := PortsInUse()
	id, err := tn.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before+1 {
		t.Fatalf("PortsInUse = %d after join, want %d", got, before+1)
	}
	add(t, tn, "k", 0, "10.0.0.1:80", time.Hour)
	entries, err := tn.Lookup(ctx, id, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("lookup at joined TCP peer: %d entries, want 1", len(entries))
	}
	if err := tn.Leave(ctx, id); err != nil {
		t.Fatal(err)
	}
	if got := PortsInUse(); got != before {
		t.Fatalf("PortsInUse = %d after leave, want %d", got, before)
	}
	if tn.IsAlive(id) {
		t.Fatal("TCP peer alive after Leave")
	}
	// Survivors still answer.
	var at overlay.NodeID
	for i := 0; i < tn.Size(); i++ {
		if nid := overlay.NodeID(i); tn.IsAlive(nid) && tn.Authority("k") != nid {
			at = nid
			break
		}
	}
	if _, err := tn.Lookup(ctx, at, "k"); err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseIdempotent(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 4, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	tn.Close()
	tn.Close()
}

// settle waits until no message has been sent for one probe window.
func settle(n *Network) {
	for !n.Quiesced(10 * time.Millisecond) {
	}
}

// openConns counts the connections peers read that keep selects, under
// each sock's lock, so it can run beside the readers.
func openConns(n *Network, keep func(p *peer, c net.Conn) bool) (count int) {
	for _, p := range *n.peers.Load() {
		p.sock.mu.Lock()
		for c := range p.sock.open {
			if keep(p, c) {
				count++
			}
		}
		p.sock.mu.Unlock()
	}
	return count
}

// TestTCPOneConnectionPerNeighbourPair: both of a neighbour pair's
// logical channels share one socket. After serial lookups and refreshes,
// every pair that exchanged frames both ways sends on one connection,
// and no peer holds a connection beyond its pairs' one each.
func TestTCPOneConnectionPerNeighbourPair(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 16, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	ctx := ctxShort(t)
	for i := 0; i < 16; i++ {
		key := overlay.Key(fmt.Sprintf("k%d", i))
		add(t, tn, key, 0, "10.0.0.1", time.Hour)
		for _, at := range []overlay.NodeID{overlay.NodeID(i % 16), overlay.NodeID((7*i + 3) % 16)} {
			if _, err := tn.Lookup(ctx, at, key); err != nil {
				t.Fatal(err)
			}
			settle(tn)
		}
		if err := tn.RefreshCtx(ctx, key, 0, "10.0.0.1", time.Hour); err != nil {
			t.Fatal(err)
		}
		settle(tn)
	}
	peers := *tn.peers.Load()
	way := func(p *peer, to overlay.NodeID) net.Conn {
		p.sock.mu.Lock()
		defer p.sock.mu.Unlock()
		return p.sock.conns[to]
	}
	pairs, both := 0, 0
	for _, a := range peers {
		for _, b := range peers[a.id+1:] {
			ab, ba := way(a, b.id), way(b, a.id)
			if ab == nil && ba == nil {
				continue
			}
			pairs++
			if ab == nil || ba == nil {
				continue
			}
			both++
			if ab.LocalAddr().String() != ba.RemoteAddr().String() {
				t.Errorf("peers %v and %v send on two connections: %v→%v and %v→%v",
					a.id, b.id, ab.LocalAddr(), ab.RemoteAddr(), ba.LocalAddr(), ba.RemoteAddr())
			}
		}
	}
	if both == 0 {
		t.Fatal("no neighbour pair exchanged frames both ways")
	}
	if open := openConns(tn, func(*peer, net.Conn) bool { return true }); open != 2*pairs {
		t.Errorf("%d connection ends open for %d neighbour pairs, want %d", open, pairs, 2*pairs)
	}
}

// TestTCPSimultaneousDial: two peers that first send to each other at the
// same moment may each dial. Every frame still arrives, and Close returns.
func TestTCPSimultaneousDial(t *testing.T) {
	const rounds, frames = 40, 16
	for r := 0; r < rounds; r++ {
		tn, err := NewTCPNetwork(Config{Nodes: 2, Seed: int64(r + 1), Node: defaultCfg()})
		if err != nil {
			t.Fatal(err)
		}
		peers := *tn.peers.Load()
		start := make(chan struct{})
		var sent sync.WaitGroup
		for _, p := range peers {
			p, to := p, 1-p.id
			sent.Add(1)
			if err := p.post(ctxShort(t), func() {
				defer sent.Done()
				<-start
				for i := 0; i < frames; i++ {
					tn.link.send(p, to, message{kind: msgClearBit, from: p.id, key: overlay.Key(fmt.Sprint(i))})
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		close(start)
		sent.Wait()
		for deadline := time.Now().Add(5 * time.Second); tn.Counters().ClearBitHops != 2*frames; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d of %d clear-bits delivered", r, tn.Counters().ClearBitHops, 2*frames)
			}
		}
		tn.Close()
	}
}

// TestTCPLeaveClosesEveryConnection: a departing peer closes the
// connections it accepted as well as those it dialed, so within a second
// every neighbour's end of one has read EOF and its own readers are gone.
func TestTCPLeaveClosesEveryConnection(t *testing.T) {
	tn, err := NewTCPNetwork(Config{Nodes: 8, Seed: 3, Node: defaultCfg()})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Close()
	ctx := ctxShort(t)
	id, err := tn.Join(ctx)
	if err != nil {
		t.Fatal(err)
	}
	j := tn.peerAt(id)
	listener := j.sock.ln.Addr().String()
	// Lookups elsewhere of the keys the joiner owns make its neighbours
	// dial it; then lookups at the joiner make it dial the rest.
	dialed, accepted := 0, 0
	for i := 0; i < 512 && (dialed == 0 || accepted == 0); i++ {
		key := overlay.Key(fmt.Sprintf("k%d", i))
		owned := tn.Authority(key) == id
		if owned != (accepted == 0) { // the joiner's keys first, then the rest
			continue
		}
		at := id
		if owned {
			at = overlay.NodeID(i % int(id))
		}
		add(t, tn, key, 0, "10.0.0.1", time.Hour)
		if _, err := tn.Lookup(ctx, at, key); err != nil {
			t.Fatal(err)
		}
		accepted = openConns(tn, func(p *peer, c net.Conn) bool { return p == j && c.LocalAddr().String() == listener })
		dialed = openConns(tn, func(p *peer, c net.Conn) bool { return p == j }) - accepted
	}
	if dialed == 0 || accepted == 0 {
		t.Fatalf("joiner holds %d dialed and %d accepted connections, want some of each", dialed, accepted)
	}
	// A neighbour that forgets its way to the joiner dials again: the
	// joiner reads the new connection but, having a way back, never
	// adopts it, as after a simultaneous dial.
	var nb *peer
	for _, p := range *tn.peers.Load() {
		p.sock.mu.Lock()
		if p.sock.conns[id] != nil && nb == nil {
			nb = p
			delete(p.sock.conns, id)
		}
		p.sock.mu.Unlock()
	}
	held := openConns(tn, func(p *peer, c net.Conn) bool { return p == j })
	if err := nb.post(ctx, func() { tn.link.send(nb, id, message{kind: msgClearBit, from: nb.id, key: "k"}) }); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); openConns(tn, func(p *peer, c net.Conn) bool { return p == j }) == held; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the joiner never accepted its neighbour's second connection")
		}
	}
	ends := map[string]bool{} // the joiner's ends, as its neighbours see them
	openConns(tn, func(p *peer, c net.Conn) bool {
		if p == j {
			ends[c.LocalAddr().String()] = true
		}
		return false
	})
	if err := tn.Leave(ctx, id); err != nil {
		t.Fatal(err)
	}
	left := func(p *peer, c net.Conn) bool { return p == j || ends[c.RemoteAddr().String()] }
	for deadline := time.Now().Add(time.Second); openConns(tn, left) > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("1 s after Leave, %d connection ends to the departed peer are still open", openConns(tn, left))
		}
	}
}

// BenchmarkTCPLookup is the live TCP layer's row: a first-time-miss
// lookup on a 64-node CAN network, one new key per iteration, so each
// walks to the key's authority and back over framed loopback sockets.
func BenchmarkTCPLookup(b *testing.B) {
	const nodes, warm = 64, 512
	tn, err := NewTCPNetwork(Config{Nodes: nodes, Overlay: "can", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer tn.Close()
	ctx := context.Background()
	keys := make([]overlay.Key, warm+b.N)
	for i := range keys {
		keys[i] = overlay.Key(fmt.Sprintf("b%d", i))
		if err := tn.AddReplicaCtx(ctx, keys[i], 0, "10.0.0.1", time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	lookup := func(key overlay.Key) {
		if entries, err := tn.Lookup(ctx, overlay.NodeID(rng.Intn(nodes)), key); err != nil || len(entries) != 1 {
			b.Fatalf("lookup %s: %d entries, %v", key, len(entries), err)
		}
	}
	for _, key := range keys[:warm] { // every peer dials the neighbours it forwards to
		lookup(key)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, key := range keys[warm:] {
		lookup(key)
	}
}
