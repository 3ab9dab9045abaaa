package transport

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"socialchain/internal/walframe"
)

// TCP transport defaults.
const (
	DefaultDialTimeout = 2 * time.Second
	DefaultBackoffBase = 25 * time.Millisecond
	DefaultBackoffMax  = time.Second
	DefaultQueueLen    = 1024
)

// helloStream carries the handshake: the first frame on every connection,
// in both directions, is a hello on this stream.
const helloStream = "@hello"

// hello is the handshake payload: the dialer announces which cluster it
// belongs to and who it is; the acceptor verifies the cluster and replies
// in kind so the dialer can verify it reached the node it meant to.
type hello struct {
	Cluster string `json:"cluster"`
	From    string `json:"from"`
}

// TCPConfig configures one TCP endpoint.
type TCPConfig struct {
	// ID is this node's identity, announced in the handshake.
	ID string
	// Cluster names the deployment; both handshake sides must agree, so a
	// process from the wrong deployment (or a stray port scan) is rejected
	// before any message is dispatched.
	Cluster string
	// Listen is the listen address ("127.0.0.1:0" picks a port). Empty
	// means a client-only endpoint: it dials out and receives replies on
	// its outbound connections.
	Listen string
	// Peers is the static peer book: node ID -> dial address. An empty
	// address registers a peer we expect to dial *us* (sends to it ride
	// its inbound connection). Peers can also be added later with AddPeer.
	Peers map[string]string
	// DialTimeout bounds one dial + handshake attempt.
	DialTimeout time.Duration
	// BackoffBase and BackoffMax shape the exponential reconnect backoff:
	// base, 2*base, 4*base, ... capped at max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// QueueLen bounds each peer's send queue in frames; a full queue
	// returns ErrBackpressure from Send.
	QueueLen int
}

// check refuses tunings that mean nothing: a negative queue bound or
// duration, and a backoff base above its cap when both are set.
func (c *TCPConfig) check() error {
	if c.QueueLen < 0 {
		return fmt.Errorf("transport: QueueLen must be >= 0, got %d", c.QueueLen)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"DialTimeout", c.DialTimeout}, {"BackoffBase", c.BackoffBase}, {"BackoffMax", c.BackoffMax}} {
		if d.v < 0 {
			return fmt.Errorf("transport: %s must be >= 0, got %v", d.name, d.v)
		}
	}
	if c.BackoffBase > 0 && c.BackoffMax > 0 && c.BackoffBase > c.BackoffMax {
		return fmt.Errorf("transport: backoff base %v exceeds its cap %v", c.BackoffBase, c.BackoffMax)
	}
	return nil
}

func (c *TCPConfig) fill() {
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = DefaultBackoffBase
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = DefaultBackoffMax
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = c.BackoffBase
	}
	if c.QueueLen <= 0 {
		c.QueueLen = DefaultQueueLen
	}
}

// TCP is a socket-backed Transport. Each known peer has a bounded send
// queue drained by a dedicated write pump, which (re)dials with exponential
// backoff when the peer has a dial address and otherwise waits to adopt the
// peer's next inbound connection. Every connection — dialed or accepted —
// gets a read loop that verifies frames and dispatches handlers.
type TCP struct {
	cfg TCPConfig
	ln  net.Listener

	mu       sync.RWMutex
	handlers map[string]Handler
	peers    map[string]*tcpPeer
	conns    map[net.Conn]struct{}
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
	ctr  Counters
}

type tcpPeer struct {
	id    string
	queue *Queue[[]byte] // encoded frames, at most QueueLen
	kick  chan struct{}  // signaled when an inbound conn is adopted

	mu   sync.Mutex
	addr string
	conn net.Conn
}

// NewTCP creates the endpoint, binds the listener (if any) and starts the
// write pumps for the configured peer book. A negative bound or an inverted
// backoff is refused before anything is bound.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	cfg.fill()
	if cfg.ID == "" {
		return nil, fmt.Errorf("transport: tcp endpoint needs an ID")
	}
	t := &TCP{
		cfg:      cfg,
		handlers: make(map[string]Handler),
		peers:    make(map[string]*tcpPeer),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	if cfg.Listen != "" {
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
		}
		t.ln = ln
		t.wg.Add(1)
		go t.acceptLoop()
	}
	for id, addr := range cfg.Peers {
		if id != cfg.ID {
			t.AddPeer(id, addr)
		}
	}
	return t, nil
}

// ID implements Transport.
func (t *TCP) ID() string { return t.cfg.ID }

// Counters implements Transport.
func (t *TCP) Counters() *Counters { return &t.ctr }

// Addr returns the bound listen address ("" for client-only endpoints);
// useful when Listen was ":0".
func (t *TCP) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Handle implements Transport.
func (t *TCP) Handle(stream string, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[stream] = h
}

// Peers implements Transport.
func (t *TCP) Peers() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddPeer registers a peer (id -> dial address, empty for inbound-only) and
// starts its write pump. Adding an existing peer updates its address.
func (t *TCP) AddPeer(id, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || id == t.cfg.ID {
		return
	}
	if p, ok := t.peers[id]; ok {
		p.mu.Lock()
		p.addr = addr
		p.mu.Unlock()
		return
	}
	t.addPeer(id, addr)
}

// addPeer registers a new peer and starts its write pump. Caller holds mu.
func (t *TCP) addPeer(id, addr string) *tcpPeer {
	p := &tcpPeer{id: id, addr: addr, queue: NewQueue[[]byte](t.cfg.QueueLen), kick: make(chan struct{}, 1)}
	t.peers[id] = p
	t.wg.Add(1)
	go t.writePump(p)
	return p
}

// Send implements Transport.
func (t *TCP) Send(to, stream string, payload []byte) error {
	frame, err := EncodeFrame(stream, payload)
	if err != nil {
		return err
	}
	t.mu.RLock()
	p, ok := t.peers[to]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return ErrUnknownPeer
	}
	if !p.queue.Push(frame) {
		t.ctr.Drops.Inc()
		return fmt.Errorf("%w (peer %s)", ErrBackpressure, to)
	}
	return nil
}

// Close implements Transport. It stops the listener, the pumps and every
// connection, then waits for their goroutines.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	clear(t.handlers) // what arrives from here on is dropped
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	close(t.done)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return nil
}

// trackConn registers a live connection so Close can tear it down; it
// reports false (and closes the conn) when the endpoint is already closing.
func (t *TCP) trackConn(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// --- write path ---

// writePump drains one peer's send queue. Each frame is written to the
// current connection, (re)establishing it first if needed; a failed write
// tears the connection down and the frame is retried on the next one, so a
// restarting peer sees the stream resume where it broke (modulo the frames
// the kernel already accepted — the protocol layers tolerate duplicates).
func (t *TCP) writePump(p *tcpPeer) {
	defer t.wg.Done()
	for {
		select {
		case <-t.done:
			return
		case <-p.queue.Ready():
		}
		frame, ok := p.queue.Pop()
		if !ok {
			continue
		}
		for {
			conn := t.acquire(p)
			if conn == nil {
				return // endpoint closed
			}
			if _, err := conn.Write(frame); err != nil {
				t.dropConn(p, conn)
				continue
			}
			t.ctr.FramesSent.Inc()
			t.ctr.BytesSent.Add(int64(len(frame)))
			break
		}
	}
}

// acquire returns a live connection to p, dialing with exponential backoff
// when p has an address and otherwise waiting for an inbound connection to
// adopt. Returns nil only when the endpoint is closing.
func (t *TCP) acquire(p *tcpPeer) net.Conn {
	backoff := t.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		conn, addr := p.conn, p.addr
		p.mu.Unlock()
		if conn != nil {
			return conn
		}
		select {
		case <-t.done:
			return nil
		default:
		}
		if addr != "" {
			if conn, err := t.dial(addr, p.id); err == nil {
				if !t.trackConn(conn) {
					return nil
				}
				adopted := false
				p.mu.Lock()
				if p.conn != nil { // an inbound conn won the race
					stale := conn
					conn = p.conn
					p.mu.Unlock()
					t.dropConn(p, stale)
				} else {
					p.conn = conn
					adopted = true
					p.mu.Unlock()
				}
				if adopted {
					t.ctr.Reconnects.Inc()
					t.wg.Add(1)
					go t.readLoop(conn, p)
				}
				return conn
			}
		}
		select {
		case <-t.done:
			return nil
		case <-p.kick: // inbound conn adopted; retry immediately
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > t.cfg.BackoffMax {
			backoff = t.cfg.BackoffMax
		}
	}
}

// dial connects, sends our hello and verifies the peer's reply: right
// cluster, and the node we meant to reach.
func (t *TCP) dial(addr, expect string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(t.cfg.DialTimeout)
	conn.SetDeadline(deadline)
	if err := t.sendHello(conn); err != nil {
		conn.Close()
		return nil, err
	}
	peer, err := t.readHello(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if peer != expect {
		conn.Close()
		return nil, fmt.Errorf("transport: dialed %s for peer %s but reached %s", addr, expect, peer)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

func (t *TCP) sendHello(conn net.Conn) error {
	body, err := json.Marshal(hello{Cluster: t.cfg.Cluster, From: t.cfg.ID})
	if err != nil {
		return err
	}
	frame, err := EncodeFrame(helloStream, body)
	if err != nil {
		return err
	}
	_, err = conn.Write(frame)
	return err
}

func (t *TCP) readHello(conn net.Conn) (string, error) {
	stream, body, err := ReadFrame(conn, DefaultMaxFrame)
	if err != nil {
		return "", err
	}
	if stream != helloStream {
		return "", fmt.Errorf("%w: expected hello, got stream %q", ErrFrameCorrupt, stream)
	}
	var h hello
	if err := json.Unmarshal(body, &h); err != nil {
		return "", fmt.Errorf("%w: bad hello: %v", ErrFrameCorrupt, err)
	}
	if h.Cluster != t.cfg.Cluster {
		return "", fmt.Errorf("transport: cluster mismatch: %q dialed %q", h.Cluster, t.cfg.Cluster)
	}
	if h.From == "" {
		return "", fmt.Errorf("%w: hello without node id", ErrFrameCorrupt)
	}
	return h.From, nil
}

// dropConn closes conn, untracks it, and clears it from p if still current.
func (t *TCP) dropConn(p *tcpPeer, conn net.Conn) {
	conn.Close()
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
	}
	p.mu.Unlock()
}

// --- read path ---

// acceptLoop handshakes inbound connections and attaches them to their
// peer: always as a read source, and as the send path too when we have no
// dial address for that peer (client endpoints reach us this way).
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
		peerID, err := t.readHello(conn)
		if err != nil {
			t.ctr.Drops.Inc()
			conn.Close()
			continue
		}
		if err := t.sendHello(conn); err != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(time.Time{})

		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		p, ok := t.peers[peerID]
		if !ok {
			p = t.addPeer(peerID, "")
		}
		t.mu.Unlock()

		if !t.trackConn(conn) {
			return
		}
		p.mu.Lock()
		if p.addr == "" { // adopt as the send path; retire any stale one
			if p.conn != nil && p.conn != conn {
				p.conn.Close()
			}
			p.conn = conn
			select {
			case p.kick <- struct{}{}:
			default:
			}
		}
		p.mu.Unlock()

		t.wg.Add(1)
		go t.readLoop(conn, p)
	}
}

// readLoop verifies and dispatches frames from one connection until it
// breaks; any framing error fails closed by tearing the connection down.
func (t *TCP) readLoop(conn net.Conn, p *tcpPeer) {
	defer t.wg.Done()
	defer t.dropConn(p, conn)
	for {
		stream, body, err := ReadFrame(conn, DefaultMaxFrame)
		if err != nil {
			return
		}
		t.ctr.FramesRecv.Inc()
		t.ctr.BytesRecv.Add(int64(walframe.HeaderLen + 1 + len(stream) + len(body)))
		t.mu.RLock()
		h := t.handlers[stream]
		t.mu.RUnlock()
		if h == nil {
			t.ctr.Drops.Inc()
			continue
		}
		if err := h(p.id, body); err != nil {
			t.ctr.Drops.Inc()
		}
	}
}
