package comm

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
)

// ---------------------------------------------------------------------------
// Server side (central scheduler)

// TCPServer is the listening end of the TCP transport: agents dial
// in, announce their name with their first frame's From, and are then
// addressable by it. A frame in either direction is one gob-encoded
// Envelope, so Seq and Sum cross the wire as they cross the hub. A
// peer whose bytes do not decode as an Envelope is disconnected.
type TCPServer struct {
	name string
	ln   net.Listener

	mu     sync.Mutex
	peers  map[string]*peerConn
	conns  map[net.Conn]bool // every accepted conn, named or not
	inbox  chan Envelope
	closed bool
}

type peerConn struct {
	conn net.Conn
	enc  *gob.Encoder
	mu   sync.Mutex
}

func (p *peerConn) send(e Envelope) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.enc.Encode(&e)
}

// ListenTCP starts a transport server on addr (e.g. "127.0.0.1:0").
func ListenTCP(name, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: %w", err)
	}
	s := &TCPServer{
		name:  name,
		ln:    ln,
		peers: make(map[string]*peerConn),
		conns: make(map[net.Conn]bool),
		inbox: make(chan Envelope, 256),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with port 0).
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = true
	s.mu.Unlock()
	dec := gob.NewDecoder(conn)
	pc := &peerConn{conn: conn, enc: gob.NewEncoder(conn)}
	var peer string
	for {
		var e Envelope
		if err := dec.Decode(&e); err != nil {
			break
		}
		if peer == "" {
			peer = e.From
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				break
			}
			s.peers[peer] = pc
			s.mu.Unlock()
		}
		s.deliver(e)
	}
	_ = conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	if peer != "" && s.peers[peer] == pc {
		delete(s.peers, peer)
	}
	s.mu.Unlock()
}

// deliver queues e without blocking. The send is made under mu, where
// Close closes the inbox, so a delivery racing Close lands or is
// dropped, and never sends on a closed channel.
func (s *TCPServer) deliver(e Envelope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.inbox <- e:
	default:
	}
}

// Send implements Transport.
func (s *TCPServer) Send(to string, e Envelope) error {
	s.mu.Lock()
	pc, ok := s.peers[to]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("comm: no connected peer %q", to)
	}
	return pc.send(e)
}

// Recv implements Transport.
func (s *TCPServer) Recv() <-chan Envelope { return s.inbox }

// Name implements Transport.
func (s *TCPServer) Name() string { return s.name }

// Close implements Transport.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//gflint:ignore order live sockets have no order; close order is immaterial
		conns = append(conns, c)
	}
	s.conns = map[net.Conn]bool{}
	s.peers = map[string]*peerConn{}
	close(s.inbox)
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return s.ln.Close()
}

// ---------------------------------------------------------------------------
// Client side (server agent)

// TCPClient is the dialing end; all Sends go to the listening peer
// regardless of the `to` argument (the protocol is strictly
// agent↔central).
type TCPClient struct {
	name string
	conn net.Conn
	enc  *gob.Encoder
	mu   sync.Mutex

	inbox  chan Envelope
	closed bool
	cmu    sync.Mutex
}

// DialTCP connects an agent endpoint to a TCPServer. The first Send
// announces the name; the server cannot address the agent before it.
func DialTCP(name, addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("comm: %w", err)
	}
	c := &TCPClient{
		name:  name,
		conn:  conn,
		enc:   gob.NewEncoder(conn),
		inbox: make(chan Envelope, 256),
	}
	go c.recvLoop()
	return c, nil
}

func (c *TCPClient) recvLoop() {
	dec := gob.NewDecoder(c.conn)
	for {
		var e Envelope
		if err := dec.Decode(&e); err != nil {
			break
		}
		c.cmu.Lock()
		if !c.closed {
			select {
			case c.inbox <- e:
			default:
			}
		}
		c.cmu.Unlock()
	}
	_ = c.Close()
}

// Send implements Transport. The envelope goes out whole, stamped
// with this endpoint's name as its From.
func (c *TCPClient) Send(to string, e Envelope) error {
	e.From = c.name
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.enc.Encode(&e)
}

// Recv implements Transport.
func (c *TCPClient) Recv() <-chan Envelope { return c.inbox }

// Name implements Transport.
func (c *TCPClient) Name() string { return c.name }

// Close implements Transport.
func (c *TCPClient) Close() error {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.conn.Close()
	close(c.inbox)
	return err
}

var (
	_ Transport = (*TCPServer)(nil)
	_ Transport = (*TCPClient)(nil)
)
