package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPConfig parameterizes a TCP transport. Self and Addrs are required:
// Addrs[r] is the address rank r listens on, and the table — exchanged
// out-of-band by the launcher — is the rendezvous; the per-connection
// preamble/ack handshake then verifies that both ends agree on protocol
// version, world size and rank identity before any frame flows.
type TCPConfig struct {
	// Self is the rank this process hosts.
	Self int
	// Addrs maps every rank to its listen address (host:port). len(Addrs)
	// is the world size.
	Addrs []string
	// Listener optionally supplies a pre-bound listener for Addrs[Self]
	// (tests use it for ephemeral :0 ports). NewTCP listens itself when
	// nil.
	Listener net.Listener

	// HeartbeatTimeout is the silence after which a peer is declared dead
	// and the world aborts (default 5s). Liveness beacons go out 20 times
	// per timeout.
	HeartbeatTimeout time.Duration
	// BootstrapTimeout bounds Start's wait for the full peer mesh
	// (default 30s).
	BootstrapTimeout time.Duration

	// Logf, when non-nil, receives debug lines (connection lifecycle,
	// faults).
	Logf func(format string, args ...any)
}

func (c *TCPConfig) applyDefaults() {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
}

const (
	// bootstrapRetry is the pause between dials to a lower-ranked peer
	// that is not up yet.
	bootstrapRetry = 50 * time.Millisecond
	// dialTimeout bounds one dial + handshake attempt.
	dialTimeout = 5 * time.Second
	// writeTimeout is the per-frame send deadline. A write that misses it,
	// like any other error on an established connection, declares the
	// peer down.
	writeTimeout = 10 * time.Second
)

// tcpPeer is the state of one remote rank: a single persistent full-duplex
// connection, established once by the higher rank dialing the lower one.
type tcpPeer struct {
	rank   int
	addr   string
	dialer bool // this process dials (peer rank < self)

	mu   sync.Mutex // guards conn and wbuf; held across a frame's write
	conn net.Conn   // set once by the handshake, nil before it
	wbuf []byte     // frame encode staging, reused

	lastRecv atomic.Int64 // unix nanos of the last inbound frame
}

// TCP is the networked transport: one process hosts exactly one rank and
// exchanges frames with every peer over persistent connections. As in
// MPI, a connection that breaks is not repaired: the first read or write
// error on it declares the peer down, and the world aborts.
type TCP struct {
	cfg  TCPConfig
	self int
	size int
	ln   net.Listener
	h    Handlers

	peers []*tcpPeer // nil at self

	started  atomic.Bool
	closed   atomic.Bool
	aborting atomic.Bool
	dead     atomic.Bool // a peer was declared down: the world is lost
	stopc    chan struct{}
	wg       sync.WaitGroup

	abortOnce sync.Once
	downOnce  sync.Once
	closeMu   sync.Mutex

	ctr counters
}

// NewTCP creates the transport and binds the listener for Addrs[Self]
// (unless cfg.Listener is supplied). Connections are only established by
// Start; until then inbound dials queue in the listen backlog, so peers
// may come up in any order.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	size := len(cfg.Addrs)
	if size < 1 {
		return nil, fmt.Errorf("transport: tcp needs a non-empty address table")
	}
	if cfg.Self < 0 || cfg.Self >= size {
		return nil, fmt.Errorf("transport: tcp self rank %d outside world of size %d", cfg.Self, size)
	}
	cfg.applyDefaults()
	t := &TCP{
		cfg:   cfg,
		self:  cfg.Self,
		size:  size,
		peers: make([]*tcpPeer, size),
		stopc: make(chan struct{}),
	}
	for r := 0; r < size; r++ {
		if r == t.self {
			continue
		}
		t.peers[r] = &tcpPeer{rank: r, addr: cfg.Addrs[r], dialer: r < t.self}
	}
	if cfg.Listener != nil {
		t.ln = cfg.Listener
	} else {
		ln, err := net.Listen("tcp", cfg.Addrs[t.self])
		if err != nil {
			return nil, fmt.Errorf("transport: tcp listen on %s: %w", cfg.Addrs[t.self], err)
		}
		t.ln = ln
	}
	return t, nil
}

// Size returns the world size.
func (t *TCP) Size() int { return t.size }

// LocalRanks returns the single rank this process hosts.
func (t *TCP) LocalRanks() []int { return []int{t.self} }

// Stats returns a snapshot of the transport counters.
func (t *TCP) Stats() Stats { return t.ctr.snapshot() }

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Start runs the bootstrap: it begins accepting, dials every lower-ranked
// peer, and blocks until the full peer mesh is up (or BootstrapTimeout
// passes, closing the transport and returning an error). The Starts of
// all ranks must overlap — each side of a connection completes its
// handshake only when the other side is bootstrapping too.
func (t *TCP) Start(h Handlers) error {
	if h.Deliver == nil {
		return fmt.Errorf("transport: tcp Start with nil Deliver")
	}
	if t.started.Swap(true) {
		return fmt.Errorf("transport: tcp Start called twice")
	}
	t.h = h
	t.wg.Add(1)
	go t.acceptLoop()

	deadline := time.Now().Add(t.cfg.BootstrapTimeout)
	errc := make(chan error, t.size)
	for _, p := range t.peers {
		if p == nil || !p.dialer {
			continue
		}
		p := p
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			errc <- t.bootstrapDial(p, deadline)
		}()
	}
	for _, p := range t.peers {
		if p != nil && p.dialer {
			if err := <-errc; err != nil {
				t.Close()
				return err
			}
		}
	}
	// Wait for the acceptor-side half of the mesh.
	for !t.allConnected() {
		if t.closed.Load() {
			return ErrClosed
		}
		if time.Now().After(deadline) {
			t.Close()
			return fmt.Errorf("transport: rank %d bootstrap timed out waiting for inbound peers", t.self)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.wg.Add(1)
	go t.monitor()
	t.logf("transport: rank %d mesh up (%d peers)", t.self, t.size-1)
	return nil
}

func (t *TCP) allConnected() bool {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		up := p.conn != nil
		p.mu.Unlock()
		if !up {
			return false
		}
	}
	return true
}

// bootstrapDial establishes the connection to a lower-ranked peer,
// retrying while it comes up.
func (t *TCP) bootstrapDial(p *tcpPeer, deadline time.Time) error {
	for {
		if t.closed.Load() {
			return ErrClosed
		}
		conn, err := t.dialPeer(p)
		if err == nil {
			p.mu.Lock()
			defer p.mu.Unlock()
			if t.closed.Load() {
				conn.Close()
				return ErrClosed
			}
			t.install(p, conn)
			return nil
		}
		if errors.Is(err, errRejected) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: rank %d could not reach rank %d at %s within the bootstrap timeout: %w",
				t.self, p.rank, p.addr, err)
		}
		time.Sleep(bootstrapRetry)
	}
}

// errRejected marks a handshake the peer refused: retrying cannot fix it.
var errRejected = errors.New("transport: handshake rejected")

// dialPeer performs one dial + handshake attempt and returns the live
// connection.
func (t *TCP) dialPeer(p *tcpPeer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	err = writePreamble(conn, preamble{
		version:   wireVersion,
		worldSize: uint32(t.size),
		src:       uint32(t.self),
		dst:       uint32(p.rank),
	})
	var status uint32
	if err == nil {
		status, err = readAck(conn)
	}
	switch {
	case err != nil:
		conn.Close()
		return nil, fmt.Errorf("handshake with rank %d: %w", p.rank, err)
	case status != ackOK:
		conn.Close()
		return nil, fmt.Errorf("rank %d rejected the connection: %s: %w",
			p.rank, ackStatusString(status), errRejected)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// install makes conn the link to p for the rest of the transport's life
// and spawns its reader. p.mu must be held.
func (t *TCP) install(p *tcpPeer, conn net.Conn) {
	p.conn = conn
	p.lastRecv.Store(time.Now().UnixNano())
	t.wg.Add(1)
	go t.reader(p, conn)
}

// acceptLoop admits inbound connections (from higher-ranked peers) for
// the transport's lifetime.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if t.closed.Load() {
				return
			}
			select {
			case <-t.stopc:
				return
			default:
			}
			// Transient accept failure: keep serving.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go t.handleAccept(conn)
	}
}

// handleAccept validates an inbound handshake and installs the connection
// for its rank. Each rank pair gets one connection: a dial for a rank
// whose link is already up is refused, never swapped in.
func (t *TCP) handleAccept(conn net.Conn) {
	defer t.wg.Done()
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	pre, err := readPreamble(conn)
	if err != nil {
		conn.Close()
		return
	}
	status := ackOK
	var p *tcpPeer
	switch {
	case pre.version != wireVersion:
		status = ackBadVersion
	case int(pre.worldSize) != t.size:
		status = ackBadSize
	case int(pre.dst) != t.self, int(pre.src) >= t.size, int(pre.src) <= t.self:
		// We only accept from higher ranks (they dial down).
		status = ackBadRank
	default:
		// Held through the ack and install, so two dials for one rank
		// cannot both be accepted.
		p = t.peers[pre.src]
		p.mu.Lock()
		defer p.mu.Unlock()
		if t.closed.Load() {
			status = ackShuttingRun
		} else if p.conn != nil {
			status = ackBadRank
		}
	}
	if err := writeAck(conn, status); err != nil || status != ackOK {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	t.install(p, conn)
}

// reader drains one connection, delivering data frames and handling
// control frames. A read error or a malformed frame declares the peer
// down.
func (t *TCP) reader(p *tcpPeer, conn net.Conn) {
	defer t.wg.Done()
	var rbuf []byte
	for {
		f, rb, err := readFrame(conn, rbuf)
		rbuf = rb
		if err != nil {
			t.fatal(p.rank, fmt.Errorf("transport: link to rank %d: %w", p.rank, err))
			return
		}
		p.lastRecv.Store(time.Now().UnixNano())
		switch f.op {
		case opHeartbeat:
			// Liveness only.
		case opAbort:
			t.remoteAbort(p.rank)
			return
		case opData:
			t.h.Deliver(Frame{Src: p.rank, Dst: t.self, Kind: f.kind, Tag: f.tag, Payload: f.payload})
		default:
			t.fatal(p.rank, fmt.Errorf("transport: unknown frame op %d from rank %d", f.op, p.rank))
			return
		}
	}
}

// write puts one frame on p's connection within timeout and returns the
// bytes written. Before the handshake (an abort during bootstrap) there is
// no connection, and nothing is written.
func (p *tcpPeer) write(kind, op uint8, tag int32, payload []int64, timeout time.Duration) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return 0, nil
	}
	p.wbuf = appendFrame(p.wbuf, kind, op, tag, payload)
	_ = p.conn.SetWriteDeadline(time.Now().Add(timeout))
	return p.conn.Write(p.wbuf)
}

// Send ships a data frame to f.Dst within writeTimeout, serializing it
// into the peer's write buffer (a frame to this rank itself is delivered
// as a copy). A failed write declares the peer down via Handlers.Down;
// from then on frames are dropped — the world is aborting.
func (t *TCP) Send(f Frame) {
	validRank(f.Dst, t.size, "send to")
	if f.Dst == t.self {
		t.ctr.framesSent.Add(1)
		t.ctr.bytesSent.Add(int64(8 * len(f.Payload)))
		t.h.Deliver(copyPayload(f))
		return
	}
	if t.closed.Load() || t.aborting.Load() || t.dead.Load() {
		return
	}
	n, err := t.peers[f.Dst].write(f.Kind, opData, f.Tag, f.Payload, writeTimeout)
	if err != nil {
		t.fatal(f.Dst, fmt.Errorf("transport: send to rank %d: %w", f.Dst, err))
		return
	}
	t.ctr.framesSent.Add(1)
	t.ctr.bytesSent.Add(int64(n))
}

// monitor is the liveness loop: every heartbeat interval it beacons every
// peer and checks how long each has been silent. Silence beyond the
// interval counts a miss; beyond HeartbeatTimeout the peer is declared
// dead and the world aborts. A beacon may wait out the timeout too before
// its failed write declares the peer down.
func (t *TCP) monitor() {
	defer t.wg.Done()
	// The beacon period is a twentieth of the timeout (250ms at the 5s
	// default).
	interval := t.cfg.HeartbeatTimeout / 20
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stopc:
			return
		case <-tick.C:
		}
		if t.closed.Load() || t.aborting.Load() || t.dead.Load() {
			return
		}
		now := time.Now().UnixNano()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			silent := time.Duration(now - p.lastRecv.Load())
			if silent > t.cfg.HeartbeatTimeout {
				t.ctr.hbMisses.Add(1)
				t.fatal(p.rank, fmt.Errorf("transport: rank %d heartbeat timeout: silent for %v (limit %v)",
					p.rank, silent.Round(time.Millisecond), t.cfg.HeartbeatTimeout))
				return
			}
			if silent > interval*3/2 {
				t.ctr.hbMisses.Add(1)
			}
			if _, err := p.write(0, opHeartbeat, 0, nil, t.cfg.HeartbeatTimeout); err != nil {
				t.fatal(p.rank, fmt.Errorf("transport: heartbeat to rank %d: %w", p.rank, err))
				return
			}
		}
	}
}

// remoteAbort handles an inbound abort control frame: the peer's world is
// going down cooperatively, so ours must too.
func (t *TCP) remoteAbort(rank int) {
	t.downOnce.Do(func() {
		if t.h.Down != nil {
			t.h.Down(rank, fmt.Errorf("%w (propagated by rank %d)", ErrPeerAborted, rank))
		}
	})
}

// fatal declares a peer permanently down, exactly once per transport.
// From then on Send drops frames: the world is lost and the rank layer is
// aborting it. Errors after Close or Abort are expected teardown, not
// faults.
func (t *TCP) fatal(rank int, err error) {
	if t.closed.Load() || t.aborting.Load() || t.dead.Swap(true) {
		return
	}
	t.logf("transport: rank %d: %v", t.self, err)
	t.downOnce.Do(func() {
		if t.h.Down != nil {
			t.h.Down(rank, err)
		}
	})
}

// Abort broadcasts the cooperative world abort to every peer
// (best-effort, short deadline) and silences the failure machinery: a
// connection torn down because the world is aborting is not a fault.
func (t *TCP) Abort() {
	t.abortOnce.Do(func() {
		t.aborting.Store(true)
		for _, p := range t.peers {
			if p != nil {
				_, _ = p.write(0, opAbort, 0, nil, time.Second)
			}
		}
	})
}

// Sever closes the link to a peer rank and declares the peer down — the
// fault hook the tests use to simulate a network partition. The peer's
// end of the link fails its next read and declares this rank down too.
func (t *TCP) Sever(rank int) {
	validRank(rank, t.size, "sever")
	p := t.peers[rank]
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
	t.fatal(rank, fmt.Errorf("transport: link to rank %d severed", rank))
}

// Close tears down the listener and every connection and joins all
// transport goroutines. Safe to call more than once.
func (t *TCP) Close() error {
	t.closeMu.Lock()
	if !t.closed.Swap(true) {
		close(t.stopc)
		t.ln.Close()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if p.conn != nil {
				p.conn.Close()
			}
			p.mu.Unlock()
		}
	}
	t.closeMu.Unlock()
	t.wg.Wait()
	return nil
}

// Loopback builds a P-rank TCP mesh on ephemeral loopback ports: P
// listeners are bound first (the rendezvous), then one transport per rank
// is created over the resulting address table. Callers must Start all
// transports concurrently — the bootstrap handshakes complete only when
// both ends are up. Tests and benchmarks use it to run a real networked
// world inside one process.
func Loopback(p int, cfg TCPConfig) ([]*TCP, error) {
	if p < 1 {
		return nil, fmt.Errorf("transport: loopback world size %d < 1", p)
	}
	lns := make([]net.Listener, p)
	addrs := make([]string, p)
	for r := 0; r < p; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:r] {
				l.Close()
			}
			return nil, err
		}
		lns[r] = ln
		addrs[r] = ln.Addr().String()
	}
	ts := make([]*TCP, p)
	for r := 0; r < p; r++ {
		c := cfg
		c.Self = r
		c.Addrs = addrs
		c.Listener = lns[r]
		t, err := NewTCP(c)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			for _, tt := range ts[:r] {
				tt.Close()
			}
			return nil, err
		}
		ts[r] = t
	}
	return ts, nil
}
