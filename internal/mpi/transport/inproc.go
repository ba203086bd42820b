package transport

import "fmt"

// Inproc is the in-process transport: every rank is local and Send
// delivers synchronously on the sender's goroutine, straight into the
// receiving rank's mailbox via Handlers.Deliver. It is the extraction of
// the original shared-memory world's delivery path and remains the
// default — no goroutines, no serialization, one payload copy per frame
// and two atomic adds for the frame counters.
type Inproc struct {
	size  int
	local []int
	h     Handlers
	ctr   counters
}

// NewInproc returns an in-process transport for a world of the given
// size. It panics if size < 1.
func NewInproc(size int) *Inproc {
	if size < 1 {
		panic(fmt.Sprintf("transport: inproc world size %d < 1", size))
	}
	local := make([]int, size)
	for i := range local {
		local[i] = i
	}
	return &Inproc{size: size, local: local}
}

// Size returns the world size.
func (t *Inproc) Size() int { return t.size }

// LocalRanks returns every rank: the whole world lives in this process.
func (t *Inproc) LocalRanks() []int { return t.local }

// Start wires the delivery handler. Inproc has no connections to bring up.
func (t *Inproc) Start(h Handlers) error {
	if h.Deliver == nil {
		return fmt.Errorf("transport: inproc Start with nil Deliver")
	}
	t.h = h
	return nil
}

// Send delivers a copy of f synchronously: the receiver owns the copy,
// and the sender may reuse its payload at once.
func (t *Inproc) Send(f Frame) {
	validRank(f.Dst, t.size, "send to")
	t.ctr.framesSent.Add(1)
	t.ctr.bytesSent.Add(int64(len(f.Payload)) * 8)
	t.h.Deliver(copyPayload(f))
}

// Abort is a no-op: every rank is local, and the world wakes its own
// mailboxes.
func (t *Inproc) Abort() {}

// Close is a no-op.
func (t *Inproc) Close() error { return nil }

// Stats returns the frame counters.
func (t *Inproc) Stats() Stats { return t.ctr.snapshot() }
