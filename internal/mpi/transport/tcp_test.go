package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

// collector is a Handlers sink recording deliveries and peer failures.
type collector struct {
	mu     sync.Mutex
	frames []Frame
	downs  []error
	downc  chan struct{}
}

func newCollector() *collector { return &collector{downc: make(chan struct{}, 16)} }

func (c *collector) handlers() Handlers {
	return Handlers{
		Deliver: func(f Frame) {
			c.mu.Lock()
			c.frames = append(c.frames, f)
			c.mu.Unlock()
		},
		Down: func(rank int, err error) {
			c.mu.Lock()
			c.downs = append(c.downs, fmt.Errorf("rank %d: %w", rank, err))
			c.mu.Unlock()
			c.downc <- struct{}{}
		},
	}
}

func (c *collector) frameCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *collector) firstDown() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.downs) == 0 {
		return nil
	}
	return c.downs[0]
}

// waitFrames polls until the collector has at least n frames.
func (c *collector) waitFrames(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.frameCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d frames (have %d)", n, c.frameCount())
		}
		time.Sleep(time.Millisecond)
	}
}

// startMesh brings up an n-rank loopback mesh with one collector per rank.
func startMesh(t *testing.T, n int, cfg TCPConfig) ([]*TCP, []*collector) {
	t.Helper()
	ts, err := Loopback(n, cfg)
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	cols := make([]*collector, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, tr := range ts {
		cols[i] = newCollector()
		wg.Add(1)
		go func(i int, tr *TCP) {
			defer wg.Done()
			errs[i] = tr.Start(cols[i].handlers())
		}(i, tr)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d Start: %v", i, err)
		}
	}
	return ts, cols
}

func closeMesh(ts []*TCP) {
	for _, tr := range ts {
		tr.Close()
	}
}

func TestLoopbackMeshDelivery(t *testing.T) {
	base := runtime.NumGoroutine()
	ts, cols := startMesh(t, 3, TCPConfig{})
	for src, tr := range ts {
		for dst := 0; dst < 3; dst++ {
			if dst == src {
				continue
			}
			tr.Send(Frame{Src: src, Dst: dst, Kind: 1, Tag: int32(10*src + dst),
				Payload: []int64{int64(src), int64(dst), 42}})
		}
	}
	for rank, col := range cols {
		col.waitFrames(t, 2)
		col.mu.Lock()
		for _, f := range col.frames {
			if f.Dst != rank {
				t.Errorf("rank %d received frame for %d", rank, f.Dst)
			}
			if want := int32(10*f.Src + f.Dst); f.Tag != want {
				t.Errorf("rank %d: frame from %d has tag %d, want %d", rank, f.Src, f.Tag, want)
			}
			if len(f.Payload) != 3 || f.Payload[0] != int64(f.Src) || f.Payload[2] != 42 {
				t.Errorf("rank %d: corrupt payload %v from %d", rank, f.Payload, f.Src)
			}
		}
		col.mu.Unlock()
		if err := col.firstDown(); err != nil {
			t.Errorf("rank %d saw a spurious peer failure: %v", rank, err)
		}
	}
	s := ts[0].Stats()
	if s.FramesSent != 2 {
		t.Errorf("rank 0 stats: sent %d, want 2", s.FramesSent)
	}
	if s.BytesSent == 0 {
		t.Errorf("rank 0 stats: zero byte counter: %+v", s)
	}
	closeMesh(ts)
	testutil.WaitNoLeak(t, base, 2)
}

func TestLargeFrameDelivery(t *testing.T) {
	ts, cols := startMesh(t, 2, TCPConfig{})
	defer closeMesh(ts)
	payload := make([]int64, 1<<16)
	for i := range payload {
		payload[i] = int64(i) * 3
	}
	ts[0].Send(Frame{Src: 0, Dst: 1, Payload: payload})
	cols[1].waitFrames(t, 1)
	cols[1].mu.Lock()
	got := cols[1].frames[0].Payload
	cols[1].mu.Unlock()
	if len(got) != len(payload) {
		t.Fatalf("payload length: got %d want %d", len(got), len(payload))
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload[%d]: got %d want %d", i, got[i], payload[i])
		}
	}
}

func TestSelfSendDeliversLocally(t *testing.T) {
	ts, cols := startMesh(t, 2, TCPConfig{})
	defer closeMesh(ts)
	ts[0].Send(Frame{Src: 0, Dst: 0, Payload: []int64{9}})
	cols[0].waitFrames(t, 1)
}

// TestConnectionLossAbortsWorld: an established connection that breaks is
// not repaired. Both ends declare the other rank down at once, well inside
// the heartbeat timeout, and the transports close without leaking.
func TestConnectionLossAbortsWorld(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := TCPConfig{HeartbeatTimeout: time.Second}
	ts, cols := startMesh(t, 2, cfg)
	ts[0].Send(Frame{Src: 0, Dst: 1, Payload: []int64{1}})
	cols[1].waitFrames(t, 1)

	p := ts[1].peers[0]
	p.mu.Lock()
	conn := p.conn
	p.mu.Unlock()
	conn.Close()
	for rank, col := range cols {
		select {
		case <-col.downc:
		case <-time.After(cfg.HeartbeatTimeout):
			t.Fatalf("rank %d did not declare its peer down within the %v heartbeat timeout", rank, cfg.HeartbeatTimeout)
		}
		if err := col.firstDown(); strings.Contains(err.Error(), "heartbeat") {
			t.Errorf("rank %d: peer declared down by the heartbeat, not the broken link: %v", rank, err)
		}
	}
	// The world is lost: sends are dropped instead of waiting out deadlines.
	ts[1].Send(Frame{Src: 1, Dst: 0, Payload: []int64{2}})
	if s := ts[1].Stats(); s.FramesSent != 0 {
		t.Errorf("rank 1 stats after the loss: %+v, want no frames sent", s)
	}
	closeMesh(ts)
	testutil.WaitNoLeak(t, base, 2)
}

// TestHandshakeRejections dials rank 0 of a running mesh with handshakes
// it must refuse, each with its own status, and checks that none of them
// disturbs the established links.
func TestHandshakeRejections(t *testing.T) {
	ts, cols := startMesh(t, 3, TCPConfig{})
	defer closeMesh(ts)
	addr := ts[0].ln.Addr().String()
	for _, tc := range []struct {
		name string
		pre  preamble
		want uint32
	}{
		{"old protocol version", preamble{version: 1, worldSize: 3, src: 2, dst: 0}, ackBadVersion},
		{"wrong world size", preamble{version: wireVersion, worldSize: 4, src: 2, dst: 0}, ackBadSize},
		{"src not above dst", preamble{version: wireVersion, worldSize: 3, src: 0, dst: 0}, ackBadRank},
		{"dst is another rank", preamble{version: wireVersion, worldSize: 3, src: 2, dst: 1}, ackBadRank},
		{"rank already connected", preamble{version: wireVersion, worldSize: 3, src: 2, dst: 0}, ackBadRank},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("%s: dial: %v", tc.name, err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := writePreamble(conn, tc.pre); err != nil {
			t.Fatalf("%s: preamble: %v", tc.name, err)
		}
		status, err := readAck(conn)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: ack: %v", tc.name, err)
		}
		if status != tc.want {
			t.Errorf("%s: status %q, want %q", tc.name, ackStatusString(status), ackStatusString(tc.want))
		}
	}
	for src, tr := range ts {
		for dst := range ts {
			if dst != src {
				tr.Send(Frame{Src: src, Dst: dst, Payload: []int64{int64(src)}})
			}
		}
	}
	for rank, col := range cols {
		col.waitFrames(t, 2)
		if err := col.firstDown(); err != nil {
			t.Errorf("rank %d lost a peer to a rejected handshake: %v", rank, err)
		}
	}
}

func TestSeverAbortsWithinHeartbeatTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := TCPConfig{HeartbeatTimeout: 300 * time.Millisecond}
	ts, cols := startMesh(t, 3, cfg)
	start := time.Now()
	ts[0].Sever(1)
	// Both ends of the severed link must declare the peer dead: rank 0 as
	// it severs, rank 1 through the read error on its end of the link.
	for _, rank := range []int{0, 1} {
		select {
		case <-cols[rank].downc:
		case <-time.After(3 * cfg.HeartbeatTimeout):
			t.Fatalf("rank %d did not declare its peer down within 3x the heartbeat timeout", rank)
		}
	}
	if elapsed := time.Since(start); elapsed > 3*cfg.HeartbeatTimeout {
		t.Errorf("abort took %v, beyond 3x the %v heartbeat timeout", elapsed, cfg.HeartbeatTimeout)
	}
	// Rank 2 is not on the severed link, but rank 1 going dead stops its
	// heartbeats to everyone, so rank 2 eventually times out on rank 1's
	// silence too — the failure gossips even without the rank layer. No
	// assertion on rank 2 here beyond the world-level sever test in
	// internal/mpi, which checks the whole world aborts.
	closeMesh(ts)
	testutil.WaitNoLeak(t, base, 2)
}

func TestAbortPropagatesToPeers(t *testing.T) {
	base := runtime.NumGoroutine()
	ts, cols := startMesh(t, 2, TCPConfig{})
	ts[0].Abort()
	select {
	case <-cols[1].downc:
	case <-time.After(5 * time.Second):
		t.Fatal("rank 1 never observed the propagated abort")
	}
	if err := cols[1].firstDown(); !errors.Is(err, ErrPeerAborted) {
		t.Fatalf("rank 1 down error = %v, want ErrPeerAborted", err)
	}
	closeMesh(ts)
	testutil.WaitNoLeak(t, base, 2)
}

func TestBootstrapTimesOutWithoutPeers(t *testing.T) {
	ts, err := Loopback(2, TCPConfig{BootstrapTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("Loopback: %v", err)
	}
	// Rank 0 never starts: rank 1's dial handshake gets no ack and its
	// bootstrap must give up within the configured timeout.
	ts[0].Close()
	defer ts[1].Close()
	if err := ts[1].Start(newCollector().handlers()); err == nil {
		t.Fatal("Start succeeded although the peer never came up")
	}
}

func TestStartValidation(t *testing.T) {
	if _, err := NewTCP(TCPConfig{}); err == nil {
		t.Error("NewTCP accepted an empty address table")
	}
	if _, err := NewTCP(TCPConfig{Self: 2, Addrs: []string{"127.0.0.1:0"}}); err == nil {
		t.Error("NewTCP accepted an out-of-range self rank")
	}
}
