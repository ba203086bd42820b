// Package transport moves message frames between the ranks of an mpi
// world. It is the seam that lets the rank layer above (internal/mpi) run
// either as P goroutines in one process or as P OS processes across
// machines without the collective code noticing:
//
//   - Inproc delivers a copy of each frame synchronously on the sender's
//     goroutine — the default, extracted from the original per-pair
//     mailbox world. All ranks are local.
//   - TCP moves frames as length-prefixed binary over persistent per-peer
//     connections, with a bootstrap handshake, heartbeat-based liveness
//     and per-op deadlines. Exactly one rank is local. A broken
//     connection is never repaired: as in MPI, it aborts the world.
//
// A transport knows nothing about tags, collectives or mailboxes: it
// ships opaque (src, dst, kind, tag, payload) frames and reports peers
// that died or whose link broke. The world maps that onto its cooperative
// abort, so a lost rank aborts the whole world instead of hanging it.
// One ownership rule holds on every backend: a sender may reuse its
// payload once Send returns, and a receiver owns the payload it is handed.
// Inproc copies each payload once; TCP serializes it once and decodes it
// once into a fresh slice.
package transport

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Frame is one message between two ranks. Kind and Tag are opaque to the
// transport (the rank layer uses them to route frames into per-queue
// mailboxes). The sender keeps its Payload: Send copies or serializes it
// before it returns. The receiver owns the Payload it is handed by Deliver.
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
	// The caller may reuse f.Payload once Send returns.
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

// Stats counts the frames and bytes a transport sent and its missed
// heartbeats. For Inproc, frames==messages and the heartbeat counter stays
// zero.
type Stats struct {
	FramesSent int64
	BytesSent  int64
	// HeartbeatMisses counts liveness checks that found a peer silent for
	// longer than the heartbeat interval (the world aborts once the
	// silence exceeds the timeout).
	HeartbeatMisses int64
}

// counters is the shared atomic backing of Stats snapshots.
type counters struct {
	framesSent atomic.Int64
	bytesSent  atomic.Int64
	hbMisses   atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		FramesSent:      c.framesSent.Load(),
		BytesSent:       c.bytesSent.Load(),
		HeartbeatMisses: c.hbMisses.Load(),
	}
}

// copyPayload returns f with a copy of its payload: the copy a transport
// makes when it hands a frame to a receiver in this process.
func copyPayload(f Frame) Frame {
	cp := make([]int64, len(f.Payload))
	copy(cp, f.Payload)
	f.Payload = cp
	return f
}

// validRank panics unless r is a rank of a size-P world.
func validRank(r, size int, what string) {
	if r < 0 || r >= size {
		panic(fmt.Sprintf("transport: %s rank %d outside world of size %d", what, r, size))
	}
}
