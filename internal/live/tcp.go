package live

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"cup/internal/cup"
	"cup/internal/overlay"
	"cup/internal/wire"
)

// TCPNetwork is the name bench/ still spells the network with.
type TCPNetwork = Network

// NewTCPNetwork starts cfg.Nodes peers as real TCP endpoints on the
// loopback interface: every peer owns a listener, query/update/clear-bit
// messages are wire-encoded frames over persistent connections, and
// everything above the link — the protocol state machine, Lookup, §2.9
// churn, the scenario replay — is the same code NewNetwork runs. The
// paper's two logical channels per neighbor share one socket, so a reply
// carries the ACK of what it answers. The listeners are drawn from the
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
// the connection the two peers share.
type tcpLink struct {
	// reserved is the part of the boot-time budget reservation no listener
	// has claimed yet. Only NewTCPNetwork's goroutine runs while it is
	// non-zero; a joiner, later, finds none and reserves its own.
	reserved int
}

// sock is one peer's end of the TCP link: its listener, every connection
// it reads (open) and the way to each neighbour (conns) among them.
type sock struct {
	ln net.Listener

	mu     sync.Mutex // guards conns, open and closed
	conns  map[overlay.NodeID]net.Conn
	open   map[net.Conn]bool
	closed bool
	// frame is the encode buffer of send, which only the holder of the
	// peer's lock calls.
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
	p.sock = &sock{ln: ln, conns: make(map[overlay.NodeID]net.Conn), open: make(map[net.Conn]bool)}
	p.net.wg.Add(1)
	go l.accept(p)
	return nil
}

// close shuts p's listener and every connection and returns its listener
// to the budget: dials to a departed peer fail, and reads from it end.
func (l *tcpLink) close(p *peer) {
	s := p.sock
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.ln.Close()
	for c := range s.open {
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
		p.sock.serve(p, conn, overlay.NoNode)
	}
}

// serve starts conn's reader and returns the way to neighbour to: conn,
// unless one came first (a way is never replaced, so each direction stays
// FIFO). On a closed sock, or when it loses, conn is closed.
func (s *sock) serve(p *peer, conn net.Conn, to overlay.NodeID) net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if won, ok := s.conns[to]; ok || s.closed {
		conn.Close()
		return won
	}
	s.open[conn] = true
	if to != overlay.NoNode {
		s.conns[to] = conn
	}
	p.net.wg.Add(1)
	go s.read(p, conn, to)
	return conn
}

// read decodes frames off one connection and hands each to the peer
// (peer.receive) on this goroutine, through a buffer: a frame's prefix
// and payload, and every frame that has arrived behind it, come out of
// the socket in one read. A frame is decoded straight into its message's
// fields, and an update frame into the Update its message carries. An
// accepted connection's first frame makes it the way back to its sender,
// if none.
func (s *sock) read(p *peer, conn net.Conn, from overlay.NodeID) {
	defer p.net.wg.Done()
	defer func() { s.drop(conn, from) }()
	r := bufio.NewReader(conn)
	var u *cup.Update // where the next update frame goes; a message takes it
	for {
		if u == nil {
			u = new(cup.Update)
		}
		var f wire.Frame
		if err := wire.ReadFrameInto(r, &f, u); err != nil {
			return
		}
		m := message{key: f.Key, from: f.From}
		switch f.Kind {
		case wire.KindQuery:
			m.kind, m.qid = msgQuery, f.QueryID
		case wire.KindUpdate:
			m.kind, m.update, u = msgUpdate, u, nil
		default:
			m.kind = msgClearBit
		}
		if from == overlay.NoNode {
			from = m.from
			s.mu.Lock()
			if _, ok := s.conns[from]; !ok {
				s.conns[from] = conn
			}
			s.mu.Unlock()
		}
		p.receive(m)
	}
}

// toWire maps the peer's message onto a frame; every frame names its
// sender, so a connection needs no introduction. An update is encoded
// from the Update m points at, which send is done with on return.
func toWire(m message) wire.Message {
	switch m.kind {
	case msgQuery:
		return wire.Query{From: m.from, Key: m.key, QueryID: m.qid}
	case msgUpdate:
		return wire.UpdateMsg{From: m.from, Update: *m.update}
	}
	return wire.ClearBit{From: m.from, Key: m.key}
}

// hold gives the owner's out-update to the sends as it is: send encodes
// it before it returns.
func (*tcpLink) hold(u *cup.Update) *cup.Update { return u }

// send writes a frame on the persistent connection to a neighbor,
// dialing on first use. Failures drop the message and the connection; a
// departed peer's listener is closed, so frames to it fail the dial.
func (l *tcpLink) send(from *peer, to overlay.NodeID, m message) {
	s := from.sock
	conn := s.connTo(from, to)
	if conn == nil {
		return
	}
	var err error
	if s.frame, err = wire.AppendFrame(s.frame[:0], toWire(m)); err == nil {
		_, err = conn.Write(s.frame)
	}
	if err != nil {
		s.drop(conn, to)
	}
}

// drop forgets conn and closes it: the next send to to dials.
func (s *sock) drop(conn net.Conn, to overlay.NodeID) {
	s.mu.Lock()
	if s.conns[to] == conn {
		delete(s.conns, to)
	}
	delete(s.open, conn)
	s.mu.Unlock()
	conn.Close()
}

// connTo returns the way to neighbour to, dialing it on first use, or
// nil; a closed sock dials nothing. The dial runs unlocked: readers
// adopt, and close closes, under mu.
func (s *sock) connTo(from *peer, to overlay.NodeID) net.Conn {
	s.mu.Lock()
	c, closed := s.conns[to], s.closed
	s.mu.Unlock()
	if target := from.net.peerAt(to); c == nil && !closed && target != nil {
		if d, err := net.DialTimeout("tcp", target.sock.ln.Addr().String(), 2*time.Second); err == nil {
			c = s.serve(from, d, to)
		}
	}
	return c
}
