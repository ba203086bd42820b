// Package transport moves message frames between the ranks of an mpi
// world. It is the seam that lets the rank layer above (internal/mpi) run
// either as P goroutines in one process or as P OS processes across
// machines without the collective code noticing:
//
//   - Inproc delivers frames synchronously on the sender's goroutine —
//     the zero-cost default extracted from the original per-pair mailbox
//     world. All ranks are local.
//   - TCP moves frames as length-prefixed binary over persistent per-peer
//     connections, with a bootstrap handshake, heartbeat-based liveness
//     and per-op deadlines. Exactly one rank is local. A broken
//     connection is never repaired: as in MPI, it aborts the world.
//
// A transport knows nothing about tags, collectives or mailboxes: it
// ships opaque (src, dst, kind, tag, payload) frames and reports peers
// that died or whose link broke. The world maps that onto its cooperative
// abort, so a lost rank aborts the whole world instead of hanging it.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Frame is one message between two ranks. Kind and Tag are opaque to the
// transport (the rank layer uses them to route frames into per-queue
// mailboxes); Payload ownership transfers to the transport on Send and to
// the receiver on Deliver.
type Frame struct {
	Src, Dst int
	Kind     uint8
	Tag      int32
	Payload  []int64
}

// ErrPeerAborted is the Down error reported when a remote rank propagated
// a cooperative world abort (as opposed to dying). Use errors.Is.
var ErrPeerAborted = errors.New("transport: peer rank aborted the world")

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// Handlers connect a transport to the rank layer above it. Deliver and
// Down may be invoked from internal transport goroutines; they must not
// block for long.
type Handlers struct {
	// Deliver hands an inbound frame to the local rank layer. Required.
	Deliver func(f Frame)
	// Down reports that communication with a peer rank is permanently
	// broken (a read or write error on its connection, a heartbeat
	// timeout, or a remote abort — err wraps ErrPeerAborted then). The
	// rank layer maps it onto a world abort. Required for remote
	// transports; Inproc never calls it.
	Down func(rank int, err error)
	// Acquire, when non-nil, sources payload buffers for received frames
	// (the world's buffer pool); a nil Acquire falls back to make.
	Acquire func(n int) []int64
	// Release, when non-nil, receives payload buffers the transport has
	// finished serializing (remote sends only — Inproc hands the buffer
	// itself to the receiver).
	Release func(b []int64)
}

func (h Handlers) acquire(n int) []int64 {
	if h.Acquire != nil {
		return h.Acquire(n)
	}
	return make([]int64, n)
}

func (h Handlers) release(b []int64) {
	if h.Release != nil {
		h.Release(b)
	}
}

// Transport moves frames between the ranks of one world.
type Transport interface {
	// Size returns the world size (total ranks across all processes).
	Size() int
	// LocalRanks returns the ranks hosted in this process, ascending.
	LocalRanks() []int
	// Start wires the handlers and brings the transport up (for TCP: the
	// bootstrap handshake with every peer). Must be called exactly once
	// before Send.
	Start(h Handlers) error
	// Send ships f to f.Dst. It never blocks indefinitely: remote
	// backends enforce per-op deadlines and report unreachable peers via
	// Handlers.Down (the frame is then dropped — the world is aborting).
	Send(f Frame)
	// Abort propagates a cooperative world abort to remote peers
	// (best-effort, idempotent). Inproc is a no-op: the world wakes its
	// own mailboxes.
	Abort()
	// Close tears down connections and joins all internal goroutines.
	// Safe to call more than once.
	Close() error
	// Stats returns a snapshot of the transport counters.
	Stats() Stats
}

// Stats counts transport-level traffic and failures. For Inproc,
// frames==messages and the heartbeat and failure counters stay zero.
type Stats struct {
	FramesSent int64 `json:"frames_sent"`
	FramesRecv int64 `json:"frames_recv"`
	BytesSent  int64 `json:"bytes_sent"`
	BytesRecv  int64 `json:"bytes_recv"`
	// HeartbeatMisses counts liveness checks that found a peer silent for
	// longer than the heartbeat interval (the world aborts once the
	// silence exceeds the timeout).
	HeartbeatMisses int64 `json:"heartbeat_misses"`
	// PeerFailures counts peers declared permanently down.
	PeerFailures int64 `json:"peer_failures"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.FramesSent += o.FramesSent
	s.FramesRecv += o.FramesRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.HeartbeatMisses += o.HeartbeatMisses
	s.PeerFailures += o.PeerFailures
}

// counters is the shared atomic backing of Stats snapshots.
type counters struct {
	framesSent atomic.Int64
	framesRecv atomic.Int64
	bytesSent  atomic.Int64
	bytesRecv  atomic.Int64
	hbMisses   atomic.Int64
	peerDown   atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		FramesSent:      c.framesSent.Load(),
		FramesRecv:      c.framesRecv.Load(),
		BytesSent:       c.bytesSent.Load(),
		BytesRecv:       c.bytesRecv.Load(),
		HeartbeatMisses: c.hbMisses.Load(),
		PeerFailures:    c.peerDown.Load(),
	}
}

// validRank panics unless r is a rank of a size-P world.
func validRank(r, size int, what string) {
	if r < 0 || r >= size {
		panic(fmt.Sprintf("transport: %s rank %d outside world of size %d", what, r, size))
	}
}
