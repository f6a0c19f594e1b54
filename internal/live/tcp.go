package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"cup/internal/overlay"
	"cup/internal/wire"
)

// TCPNetwork is the name bench/ still spells the network with.
type TCPNetwork = Network

// NewTCPNetwork starts cfg.Nodes peers as real TCP endpoints on the
// loopback interface: every peer owns a listener, query/update/clear-bit
// messages are wire-encoded frames over persistent connections, and
// everything above the link — the protocol state machine, Lookup, §2.9
// churn, the scenario engine — is the same code NewNetwork runs. This is
// the deployment shape the paper describes — two logical channels per
// neighbor — expressed as sockets. The listeners are drawn from the
// shared port budget (see budget.go), reserved up front so concurrent
// networks fail fast instead of racing the kernel's ephemeral-port
// range; every error path releases the reservation. Close releases all
// sockets, goroutines, and the budget reservation.
func NewTCPNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("live: need at least one peer, got %d", cfg.Nodes)
	}
	if err := acquirePorts(cfg.Nodes); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cfg.HopDelay = 0 // hops cost real loopback round-trips, not an injected delay
	lk := &tcpLink{reserved: cfg.Nodes}
	n, err := boot(cfg, lk)
	if err != nil {
		releasePorts(lk.reserved) // what the failed boot never bound
	}
	return n, err
}

// tcpLink joins peers by loopback sockets: a send is one framed write on
// the cached connection to the target's listener.
type tcpLink struct {
	// reserved is the part of the boot-time budget reservation no listener
	// has claimed yet. Only NewTCPNetwork's goroutine runs while it is
	// non-zero; a joiner, later, finds none and reserves its own.
	reserved int
}

// sock is one peer's end of the TCP link: its listener and lazily dialed
// outbound conns.
type sock struct {
	ln net.Listener

	mu     sync.Mutex // guards conns and closed
	conns  map[overlay.NodeID]net.Conn
	closed bool
	// frame is the encode buffer of send, which only the peer's goroutine
	// calls.
	frame []byte
}

// open binds p's listener against the port budget and starts accepting;
// a failure leaves the ledger where it was.
func (l *tcpLink) open(p *peer) error {
	if l.reserved > 0 {
		l.reserved--
	} else if err := acquirePorts(1); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		releasePorts(1)
		return fmt.Errorf("live: listen: %w", err)
	}
	p.sock = &sock{ln: ln, conns: make(map[overlay.NodeID]net.Conn)}
	p.net.wg.Add(1)
	go l.accept(p)
	return nil
}

// close shuts p's listener and every open connection and returns its
// listener to the budget: dials to a departed peer fail from here on.
func (l *tcpLink) close(p *peer) {
	s := p.sock
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ln.Close()
	for _, c := range s.conns {
		c.Close()
	}
	releasePorts(1)
}

// accept takes p's inbound connections and spawns frame readers.
func (l *tcpLink) accept(p *peer) {
	defer p.net.wg.Done()
	for {
		conn, err := p.sock.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.net.wg.Add(1)
		go l.read(p, conn)
	}
}

// read decodes frames off one connection into the peer's inbox,
// through a buffer: a frame's prefix and payload, and every frame that
// has arrived behind it, come out of the socket in one read.
func (l *tcpLink) read(p *peer, conn net.Conn) {
	defer p.net.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		wm, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		select {
		case p.inbox <- fromWire(wm):
		case <-p.gone:
			return
		case <-p.net.closed:
			return
		}
	}
}

// fromWire and toWire map frames onto the peer's message; every frame
// names its sender, so a connection needs no introduction.
func fromWire(wm wire.Message) message {
	switch v := wm.(type) {
	case wire.Query:
		return message{kind: msgQuery, from: v.From, key: v.Key, qid: v.QueryID}
	case wire.UpdateMsg:
		return message{kind: msgUpdate, from: v.From, key: v.Update.Key, update: v.Update}
	}
	v := wm.(wire.ClearBit)
	return message{kind: msgClearBit, from: v.From, key: v.Key}
}

func toWire(m message) wire.Message {
	switch m.kind {
	case msgQuery:
		return wire.Query{From: m.from, Key: m.key, QueryID: m.qid}
	case msgUpdate:
		return wire.UpdateMsg{From: m.from, Update: m.update}
	}
	return wire.ClearBit{From: m.from, Key: m.key}
}

// send writes a frame on the persistent connection to a neighbor,
// dialing on first use. Failures drop the message and the connection; a
// departed peer's listener is closed, so frames to it fail the dial.
func (l *tcpLink) send(from *peer, to overlay.NodeID, m message) {
	s := from.sock
	conn, err := s.connTo(from, to)
	if err != nil {
		return
	}
	if s.frame, err = wire.AppendFrame(s.frame[:0], toWire(m)); err == nil {
		_, err = conn.Write(s.frame)
	}
	if err != nil {
		s.mu.Lock()
		if s.conns[to] == conn {
			delete(s.conns, to)
		}
		s.mu.Unlock()
		conn.Close()
	}
}

func (s *sock) connTo(from *peer, to overlay.NodeID) (net.Conn, error) {
	target := from.net.peerAt(to)
	if target == nil {
		return nil, fmt.Errorf("live: no peer %v", to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if c, ok := s.conns[to]; ok {
		return c, nil
	}
	c, err := net.DialTimeout("tcp", target.sock.ln.Addr().String(), 2*time.Second)
	if err != nil {
		return nil, err
	}
	s.conns[to] = c
	return c, nil
}
