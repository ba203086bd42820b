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

	// HeartbeatInterval is the liveness beacon period (default 250ms);
	// HeartbeatTimeout is the silence after which a peer is declared dead
	// and the world aborts (default 5s).
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// DialTimeout bounds one dial + handshake attempt (default 5s).
	DialTimeout time.Duration
	// WriteTimeout is the per-frame send deadline, covering any reconnect
	// wait (default 10s).
	WriteTimeout time.Duration
	// BootstrapTimeout bounds Start's wait for the full peer mesh
	// (default 30s).
	BootstrapTimeout time.Duration
	// ReconnectAttempts and ReconnectBackoff bound the repair of a broken
	// established connection: attempts dials with exponentially growing
	// backoff, then the peer is declared dead (defaults 3 and 50ms).
	ReconnectAttempts int
	ReconnectBackoff  time.Duration

	// Logf, when non-nil, receives debug lines (connection lifecycle,
	// reconnects, faults).
	Logf func(format string, args ...any)
}

func (c *TCPConfig) applyDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 250 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BootstrapTimeout <= 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
	if c.ReconnectAttempts <= 0 {
		c.ReconnectAttempts = 3
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 50 * time.Millisecond
	}
}

// tcpPeer is the state of one remote rank: a single persistent full-duplex
// connection (established by the higher rank dialing the lower one),
// replaced in place on reconnect.
type tcpPeer struct {
	rank   int
	addr   string
	dialer bool // this process dials (peer rank < self)

	mu   sync.Mutex // guards conn, gen, wbuf, counters and flags below
	conn net.Conn   // nil while down
	gen  uint64     // bumped on every replacement; stale-generation faults are ignored
	wbuf []byte     // frame encode staging, reused

	// dataSent counts data frames successfully written; dataRecv counts
	// data frames delivered. Exchanged in the reconnect handshake to
	// detect frames lost in flight (control frames are excluded: their
	// number is scheduling-dependent).
	dataSent uint64
	dataRecv uint64
	// resumeSkip is 1 when the handshake proved that the frame whose
	// write errored actually reached the peer: the retrying Send must
	// not resend it.
	resumeSkip uint64
	redialing  bool

	severed  atomic.Bool  // fault injection: refuse this link forever
	lastRecv atomic.Int64 // unix nanos of the last inbound frame
}

// TCP is the networked transport: one process hosts exactly one rank and
// exchanges frames with every peer over persistent connections.
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

// bootstrapDial establishes the initial connection to a lower-ranked
// peer, retrying while it comes up.
func (t *TCP) bootstrapDial(p *tcpPeer, deadline time.Time) error {
	backoff := t.cfg.ReconnectBackoff
	for {
		if t.closed.Load() {
			return ErrClosed
		}
		conn, resume, err := t.dialPeer(p)
		if err == nil {
			t.installConn(p, conn, resume, false)
			return nil
		}
		if errors.Is(err, errResumeFatal) {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("transport: rank %d could not reach rank %d at %s within the bootstrap timeout: %w",
				t.self, p.rank, p.addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// errResumeFatal marks handshake failures that retrying cannot fix
// (frames lost, severed link, protocol mismatch).
var errResumeFatal = errors.New("transport: unrecoverable handshake failure")

// dialPeer performs one dial + handshake attempt and returns the live
// connection plus the peer's delivered-frame count for resume arithmetic.
func (t *TCP) dialPeer(p *tcpPeer) (net.Conn, uint64, error) {
	if p.severed.Load() {
		return nil, 0, fmt.Errorf("link to rank %d severed: %w", p.rank, errResumeFatal)
	}
	conn, err := net.DialTimeout("tcp", p.addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, 0, err
	}
	hsDeadline := time.Now().Add(t.cfg.DialTimeout)
	_ = conn.SetDeadline(hsDeadline)
	p.mu.Lock()
	myRecv := p.dataRecv
	p.mu.Unlock()
	if err := writePreamble(conn, preamble{
		version:   wireVersion,
		worldSize: uint32(t.size),
		src:       uint32(t.self),
		dst:       uint32(p.rank),
		recvCount: myRecv,
	}); err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("preamble to rank %d: %w", p.rank, err)
	}
	theirRecv, status, err := readAck(conn)
	if err != nil {
		conn.Close()
		return nil, 0, fmt.Errorf("ack from rank %d: %w", p.rank, err)
	}
	if status != ackOK {
		conn.Close()
		return nil, 0, fmt.Errorf("rank %d rejected the connection: %s: %w",
			p.rank, ackStatusString(status), errResumeFatal)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, theirRecv, nil
}

// installConn makes conn the live connection of p and spawns its reader.
// theirRecv is the peer's delivered count from the handshake; comparing
// it to our sent count detects in-flight loss: equal means clean resume,
// one extra means the frame whose write errored actually arrived (the
// retrying Send skips the resend), anything else means frames were lost
// and the world must abort.
func (t *TCP) installConn(p *tcpPeer, conn net.Conn, theirRecv uint64, reconnect bool) {
	p.mu.Lock()
	if t.closed.Load() {
		p.mu.Unlock()
		conn.Close()
		return
	}
	sent := p.dataSent
	if theirRecv != sent && theirRecv != sent+1 {
		p.mu.Unlock()
		conn.Close()
		t.fatal(p.rank, fmt.Errorf("transport: rank %d delivered %d of our %d frames — data lost across reconnect",
			p.rank, theirRecv, sent))
		return
	}
	old := p.conn
	p.conn = conn
	p.gen++
	gen := p.gen
	p.resumeSkip = theirRecv - sent
	p.redialing = false
	p.mu.Unlock()
	if old != nil {
		old.Close()
	}
	p.lastRecv.Store(time.Now().UnixNano())
	if reconnect {
		t.ctr.reconnects.Add(1)
		t.logf("transport: rank %d reconnected to rank %d", t.self, p.rank)
	}
	t.wg.Add(1)
	go t.reader(p, conn, gen)
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
// for its rank.
func (t *TCP) handleAccept(conn net.Conn) {
	defer t.wg.Done()
	_ = conn.SetDeadline(time.Now().Add(t.cfg.DialTimeout))
	pre, err := readPreamble(conn)
	if err != nil {
		conn.Close()
		return
	}
	reject := func(status uint32) {
		_ = writeAck(conn, 0, status)
		conn.Close()
	}
	switch {
	case pre.version != wireVersion:
		reject(ackBadVersion)
		return
	case int(pre.worldSize) != t.size:
		reject(ackBadSize)
		return
	case int(pre.dst) != t.self, int(pre.src) >= t.size, int(pre.src) <= t.self:
		// We only accept from higher ranks (they dial down).
		reject(ackBadRank)
		return
	}
	p := t.peers[pre.src]
	if p.severed.Load() {
		reject(ackSevered)
		return
	}
	if t.closed.Load() {
		reject(ackShuttingRun)
		return
	}
	p.mu.Lock()
	sent := p.dataSent
	myRecv := p.dataRecv
	p.mu.Unlock()
	if pre.recvCount != sent && pre.recvCount != sent+1 {
		reject(ackLostFrames)
		t.fatal(p.rank, fmt.Errorf("transport: rank %d delivered %d of our %d frames — data lost across reconnect",
			p.rank, pre.recvCount, sent))
		return
	}
	if err := writeAck(conn, myRecv, ackOK); err != nil {
		conn.Close()
		return
	}
	_ = conn.SetDeadline(time.Time{})
	reconnect := false
	p.mu.Lock()
	reconnect = p.gen > 0
	p.mu.Unlock()
	t.installConn(p, conn, pre.recvCount, reconnect)
}

// reader drains one connection, delivering data frames and handling
// control frames, until the connection faults or the transport stops.
func (t *TCP) reader(p *tcpPeer, conn net.Conn, gen uint64) {
	defer t.wg.Done()
	var rbuf []byte
	for {
		f, rb, err := readFrame(conn, rbuf, t.h.acquire)
		rbuf = rb
		if err != nil {
			if t.closed.Load() || t.aborting.Load() {
				return
			}
			t.connFault(p, conn, gen, err)
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
			t.ctr.framesRecv.Add(1)
			t.ctr.bytesRecv.Add(int64(headerLen + 8*len(f.payload)))
			p.mu.Lock()
			p.dataRecv++
			p.mu.Unlock()
			t.h.Deliver(Frame{Src: p.rank, Dst: t.self, Kind: f.kind, Tag: f.tag, Payload: f.payload})
		default:
			t.connFault(p, conn, gen, fmt.Errorf("transport: unknown frame op %d from rank %d", f.op, p.rank))
			return
		}
	}
}

// connFault retires a broken connection (once per generation) and, on the
// dialing side, kicks off the bounded reconnect.
func (t *TCP) connFault(p *tcpPeer, conn net.Conn, gen uint64, err error) {
	p.mu.Lock()
	if p.gen != gen {
		// A replacement already landed; this fault is stale.
		p.mu.Unlock()
		return
	}
	p.conn = nil
	p.gen++
	conn.Close()
	startRedial := p.dialer && !p.redialing && !p.severed.Load() &&
		!t.closed.Load() && !t.aborting.Load()
	if startRedial {
		p.redialing = true
	}
	p.mu.Unlock()
	t.logf("transport: rank %d link to rank %d faulted: %v", t.self, p.rank, err)
	if startRedial {
		t.wg.Add(1)
		go t.redial(p, err)
	}
	// On the accepting side the peer redials us; the heartbeat monitor
	// aborts the world if it never does.
}

// redial repairs a broken established connection: ReconnectAttempts dials
// with exponential backoff, then the peer is declared dead.
func (t *TCP) redial(p *tcpPeer, cause error) {
	defer t.wg.Done()
	backoff := t.cfg.ReconnectBackoff
	var lastErr error = cause
	for attempt := 1; attempt <= t.cfg.ReconnectAttempts; attempt++ {
		if t.closed.Load() || t.aborting.Load() || t.dead.Load() || p.severed.Load() {
			p.mu.Lock()
			p.redialing = false
			p.mu.Unlock()
			return
		}
		conn, resume, err := t.dialPeer(p)
		if err == nil {
			t.installConn(p, conn, resume, true)
			return
		}
		lastErr = err
		if errors.Is(err, errResumeFatal) {
			break
		}
		select {
		case <-t.stopc:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	p.mu.Lock()
	p.redialing = false
	p.mu.Unlock()
	t.fatal(p.rank, fmt.Errorf("transport: reconnect to rank %d failed after %d attempts: %w",
		p.rank, t.cfg.ReconnectAttempts, lastErr))
}

// Send ships a data frame to f.Dst, waiting out a reconnect within the
// per-op WriteTimeout. An unreachable peer is reported via Handlers.Down
// and the frame dropped — the world is aborting anyway.
func (t *TCP) Send(f Frame) {
	validRank(f.Dst, t.size, "send to")
	if f.Dst == t.self {
		t.ctr.framesSent.Add(1)
		t.ctr.bytesSent.Add(int64(8 * len(f.Payload)))
		t.ctr.framesRecv.Add(1)
		t.ctr.bytesRecv.Add(int64(8 * len(f.Payload)))
		t.h.Deliver(f)
		return
	}
	p := t.peers[f.Dst]
	deadline := time.Now().Add(t.cfg.WriteTimeout)
	for {
		if t.closed.Load() || t.aborting.Load() || t.dead.Load() {
			return
		}
		p.mu.Lock()
		if p.resumeSkip > 0 {
			// The handshake proved the frame whose write errored reached
			// the peer after all: count it sent, don't duplicate it.
			p.resumeSkip = 0
			p.dataSent++
			p.mu.Unlock()
			t.ctr.framesSent.Add(1)
			t.ctr.bytesSent.Add(int64(headerLen + 8*len(f.Payload)))
			t.h.release(f.Payload)
			return
		}
		conn := p.conn
		gen := p.gen
		if conn == nil {
			p.mu.Unlock()
			if !t.waitConn(p, gen, deadline) {
				t.fatal(p.rank, fmt.Errorf("transport: send to rank %d: peer unreachable within %v",
					p.rank, t.cfg.WriteTimeout))
				return
			}
			continue
		}
		p.wbuf = appendFrame(p.wbuf, f.Kind, opData, f.Tag, f.Payload)
		_ = conn.SetWriteDeadline(deadline)
		_, err := conn.Write(p.wbuf)
		if err == nil {
			p.dataSent++
			n := int64(len(p.wbuf))
			p.mu.Unlock()
			t.ctr.framesSent.Add(1)
			t.ctr.bytesSent.Add(n)
			t.h.release(f.Payload)
			return
		}
		p.mu.Unlock()
		t.connFault(p, conn, gen, err)
		// Loop: wait for the replacement (or the deadline) and retry.
	}
}

// waitConn blocks until p has a connection newer than gen, the deadline
// passes, or the transport stops. Polling keeps the state machine simple;
// the 1ms period is far below every protocol timeout.
func (t *TCP) waitConn(p *tcpPeer, gen uint64, deadline time.Time) bool {
	for {
		if t.closed.Load() || t.aborting.Load() || t.dead.Load() || p.severed.Load() {
			return false
		}
		p.mu.Lock()
		ok := p.conn != nil && p.gen != gen
		p.mu.Unlock()
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// sendControl writes a control frame (heartbeat/abort) on the live
// connection, if any. Best-effort: a write error faults the connection
// and the regular repair/liveness machinery takes over.
func (t *TCP) sendControl(p *tcpPeer, op uint8, timeout time.Duration) {
	p.mu.Lock()
	conn := p.conn
	gen := p.gen
	if conn == nil {
		p.mu.Unlock()
		return
	}
	p.wbuf = appendFrame(p.wbuf, 0, op, 0, nil)
	_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(p.wbuf)
	p.mu.Unlock()
	if err != nil && !t.closed.Load() && !t.aborting.Load() {
		t.connFault(p, conn, gen, err)
	}
}

// monitor is the liveness loop: every HeartbeatInterval it beacons every
// peer and checks how long each has been silent. Silence beyond the
// interval counts a miss; beyond HeartbeatTimeout the peer is declared
// dead and the world aborts.
func (t *TCP) monitor() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatInterval)
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
			if silent > t.cfg.HeartbeatInterval*3/2 {
				t.ctr.hbMisses.Add(1)
			}
			t.sendControl(p, opHeartbeat, t.cfg.HeartbeatInterval)
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
// From then on Send drops frames immediately instead of waiting out
// deadlines: the world is lost and the rank layer is aborting it.
func (t *TCP) fatal(rank int, err error) {
	if t.closed.Load() || t.aborting.Load() {
		return
	}
	if t.dead.Swap(true) {
		return
	}
	t.ctr.peerDown.Add(1)
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
			if p == nil {
				continue
			}
			p.mu.Lock()
			if conn := p.conn; conn != nil {
				p.wbuf = appendFrame(p.wbuf, 0, opAbort, 0, nil)
				_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
				_, _ = conn.Write(p.wbuf)
			}
			p.mu.Unlock()
		}
	})
}

// Sever cuts the link to a peer rank and refuses its re-establishment —
// the fault hook the tests use to simulate a network partition. The
// liveness machinery then aborts the world within the heartbeat timeout.
func (t *TCP) Sever(rank int) {
	validRank(rank, t.size, "sever")
	p := t.peers[rank]
	if p == nil {
		return
	}
	p.severed.Store(true)
	p.mu.Lock()
	if conn := p.conn; conn != nil {
		p.conn = nil
		p.gen++
		conn.Close()
	}
	p.mu.Unlock()
	t.logf("transport: rank %d severed link to rank %d", t.self, rank)
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
			if conn := p.conn; conn != nil {
				p.conn = nil
				p.gen++
				conn.Close()
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
