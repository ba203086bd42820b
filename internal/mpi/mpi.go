// Package mpi is an in-process message-passing substrate that stands in for
// MPI in this reproduction (the paper's implementation is C++/MPI on an
// InfiniBand cluster; Go has no MPI ecosystem, so ranks run as goroutines).
//
// The model mirrors the subset of MPI the paper's algorithms use:
//
//   - SPMD execution: World.Run launches one goroutine per rank, all
//     executing the same function.
//   - Asynchronous point-to-point sends: Send never blocks (unbounded
//     per-pair mailboxes, like buffered MPI_Isend), Recv blocks until a
//     matching message arrives. Messages between a fixed (src, dst) pair
//     are delivered in order.
//   - Collectives: Bcast, Gather, Allgatherv, Reduce variants,
//     Allreduce variants, exclusive prefix sum (ExScan) and sparse
//     Alltoallv, all built on point-to-point messages.
//   - Neighborhood collectives: NeighborAlltoallv exchanges data with a
//     caller-given, symmetric list of adjacent ranks only (the analogue of
//     MPI_Neighbor_alltoallv). Halo exchanges run on it; the distributed
//     graph derives and checks the list once per level.
//
// Every payload is a []int64, and one rule governs it: a sender may reuse
// its slice as soon as the send returns, and a receiver owns every payload
// it is handed. The transport makes the one copy in between (Inproc
// copies, TCP serializes). Per-rank counters record message and word
// volume by traffic class so experiments can report communication cost.
//
// How frames move between ranks is delegated to internal/mpi/transport:
// NewWorld hosts all ranks in-process (the default), while NewWorldOn
// accepts any Transport — with the TCP backend a world hosts
// only the ranks local to this OS process and the same SPMD code runs
// across machines.
//
// A run stops one way, through the world abort (World.Abort), as MPI
// aborts the job: a cancelled context (WatchContext), a transport-reported
// peer failure (a broken connection or a heartbeat timeout) and a rank
// that detects a protocol violation (Comm.Abort, then a panic naming the
// fault) all end in it, so no rank is left waiting for data that never
// comes. Err reports a transport failure after the fact.
package mpi

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mpi/transport"
	"repro/internal/obs"
)

type msgKind uint8

const (
	kindUser msgKind = iota
	kindCollective
)

// commClass buckets traffic for the per-class Stats counters.
type commClass uint8

const (
	classP2P  commClass = iota // user point-to-point sends
	classColl                  // dense collectives (barrier, reduce, alltoallv, ...)
	classNbr                   // sparse neighborhood collectives (NeighborAlltoallv)
	numClasses
)

// abortSignal is the panic payload of a cooperative world abort. World.Run
// recognizes it and swallows it instead of re-raising: an aborted rank is an
// expected unwinding, not a crash.
type abortSignal struct{}

// popKey identifies one receive queue inside a mailbox.
type popKey struct {
	kind msgKind
	tag  int
}

// mailbox holds the pending messages for one (dst, src) pair, bucketed into
// per-(kind, tag) FIFO queues so a receive is a map lookup instead of a
// linear scan over unrelated traffic. Messages within one (kind, tag) bucket
// keep their arrival order, which preserves the substrate's in-order
// delivery guarantee per (src, dst, tag).
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[popKey][][]int64
	aborted *atomic.Bool // the owning world's abort flag
}

func newMailbox(aborted *atomic.Bool) *mailbox {
	mb := &mailbox{aborted: aborted, queues: make(map[popKey][][]int64)}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(kind msgKind, tag int, data []int64) {
	mb.mu.Lock()
	k := popKey{kind, tag}
	mb.queues[k] = append(mb.queues[k], data)
	// Each mailbox has a single consumer (the owning rank's goroutine), so
	// Signal suffices; Abort broadcasts separately.
	mb.cond.Signal()
	mb.mu.Unlock()
}

// pop removes and returns the first queued message with the given kind and
// tag, blocking until one arrives. An aborted world unwinds the receiver.
func (mb *mailbox) pop(kind msgKind, tag int) []int64 {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	k := popKey{kind, tag}
	for {
		if mb.aborted.Load() {
			// The deferred Unlock releases the mutex during panic.
			panic(abortSignal{})
		}
		if q := mb.queues[k]; len(q) > 0 {
			data := q[0]
			if len(q) == 1 {
				// Tags are fresh per collective, so drop drained buckets to
				// keep the map from accumulating dead keys.
				delete(mb.queues, k)
			} else {
				mb.queues[k] = q[1:]
			}
			return data
		}
		mb.cond.Wait()
	}
}

// Stats counts traffic originating at one rank (or, after summing, a whole
// world). MessagesSent/WordsSent are totals; the per-class fields break the
// same traffic down by collective class, and the *Exchanges fields count
// completed all-to-all supersteps per class.
type Stats struct {
	MessagesSent int64
	WordsSent    int64 // 8-byte words

	// Per-class breakdown (sums to the totals above).
	P2PMessages      int64 // user Send/Recv traffic
	P2PWords         int64
	CollMessages     int64 // dense collectives over all P ranks
	CollWords        int64
	NeighborMessages int64 // sparse neighborhood collectives
	NeighborWords    int64

	// Superstep counters: completed exchange invocations per class.
	DenseExchanges    int64 // Alltoallv / AlltoallvFunc calls
	NeighborExchanges int64 // NeighborAlltoallv calls
}

// BytesSent converts the word counter to bytes (every payload word is 8
// bytes on the wire).
func (s Stats) BytesSent() int64 { return s.WordsSent * 8 }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.MessagesSent += o.MessagesSent
	s.WordsSent += o.WordsSent
	s.P2PMessages += o.P2PMessages
	s.P2PWords += o.P2PWords
	s.CollMessages += o.CollMessages
	s.CollWords += o.CollWords
	s.NeighborMessages += o.NeighborMessages
	s.NeighborWords += o.NeighborWords
	s.DenseExchanges += o.DenseExchanges
	s.NeighborExchanges += o.NeighborExchanges
}

// rankCounters holds one rank's traffic counters (atomics: sends happen on
// the rank's goroutine but TotalStats may read concurrently).
type rankCounters struct {
	msgs      [numClasses]atomic.Int64
	words     [numClasses]atomic.Int64
	denseExch atomic.Int64
	nbrExch   atomic.Int64
}

// World owns the mailboxes and statistics for the ranks hosted in this
// process. With the in-process transport that is every rank; with a
// networked transport each process's world hosts a subset (for TCP,
// exactly one) and boxes rows of remote ranks stay nil.
type World struct {
	size     int
	tr       transport.Transport
	local    []int        // global ranks hosted here, ascending
	boxes    [][]*mailbox // boxes[dst][src]; nil row when dst is remote
	counters []rankCounters
	aborted  atomic.Bool

	errMu sync.Mutex
	err   error // first transport failure; guarded by errMu

	// tracer records per-rank exchange spans; nil (the default) records
	// nothing and allocates nothing. Set before Run via SetTracer.
	tracer *obs.Tracer
}

// NewWorld creates an in-process world with the given number of ranks
// (all local, frames delivered synchronously). It panics if size < 1.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w, err := NewWorldOn(transport.NewInproc(size))
	if err != nil {
		// Inproc Start cannot fail with wired handlers.
		panic("mpi: inproc world: " + err.Error())
	}
	return w
}

// NewWorldOn creates a world over an arbitrary transport and starts it
// (for networked backends this blocks in the bootstrap until every peer
// process is up — their NewWorldOn calls must overlap; see JoinWorlds for
// the in-process case). The world hosts tr.LocalRanks(); Run executes the
// SPMD function for those ranks only. Callers own the transport's
// lifetime through World.Close.
func NewWorldOn(tr transport.Transport) (*World, error) {
	size := tr.Size()
	if size < 1 {
		return nil, fmt.Errorf("mpi: transport world size %d < 1", size)
	}
	w := &World{
		size:     size,
		tr:       tr,
		local:    tr.LocalRanks(),
		boxes:    make([][]*mailbox, size),
		counters: make([]rankCounters, size),
	}
	for _, d := range w.local {
		row := make([]*mailbox, size)
		for s := range row {
			row[s] = newMailbox(&w.aborted)
		}
		w.boxes[d] = row
	}
	if err := tr.Start(transport.Handlers{
		Deliver: w.deliver,
		Down:    w.peerDown,
	}); err != nil {
		return nil, err
	}
	return w, nil
}

// deliver routes an inbound frame into the destination rank's mailbox.
// Invoked by the transport — synchronously on the sender's goroutine
// (inproc) or from a connection reader (tcp).
func (w *World) deliver(f transport.Frame) {
	row := w.boxes[f.Dst]
	if row == nil {
		// Misrouted frame for a rank this process does not host; a correct
		// transport never does this, and dropping beats crashing a reader.
		return
	}
	row[f.Src].push(msgKind(f.Kind), int(f.Tag), f.Payload)
}

// peerDown is the transport's failure callback: communication with a rank
// is permanently broken, so the whole world aborts (a dead rank must not
// hang the others). The first failure is retained for Err, unless the
// world had already aborted: then the failure is the peers' echo of that
// abort, and the local cause stands.
func (w *World) peerDown(rank int, err error) {
	if w.aborted.Load() {
		return
	}
	w.errMu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("mpi: rank %d unreachable: %w", rank, err)
	}
	w.errMu.Unlock()
	w.Abort()
}

// Err returns the transport failure that aborted the world, or nil (also
// when the world aborted itself). A world aborted by a remote rank's abort
// reports an error wrapping transport.ErrPeerAborted.
func (w *World) Err() error {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// Close tears down the world's transport (connections and internal
// goroutines). Call after Run has returned on every hosted rank.
func (w *World) Close() error { return w.tr.Close() }

// LocalRanks returns the global ranks hosted by this world, ascending.
// The returned slice is shared: callers must not modify it.
func (w *World) LocalRanks() []int { return w.local }

// TransportStats returns a snapshot of the transport-level counters
// (frames and bytes sent, heartbeat misses).
func (w *World) TransportStats() transport.Stats { return w.tr.Stats() }

// Abort requests a cooperative shutdown of the whole world: every rank
// currently blocked in a receive (point-to-point or inside a collective)
// wakes up and unwinds with an internal abort panic that Run swallows, and
// every later receive or CheckAbort call unwinds immediately. Abort is safe
// to call from any goroutine, any number of times. It is the substrate
// context cancellation is built on (see WatchContext).
func (w *World) Abort() {
	if w.aborted.Swap(true) {
		return
	}
	// Propagate to remote peers first (best-effort), then wake the local
	// mailboxes so blocked receivers unwind.
	w.tr.Abort()
	for _, row := range w.boxes {
		if row == nil {
			continue
		}
		for _, mb := range row {
			mb.mu.Lock()
			mb.cond.Broadcast()
			mb.mu.Unlock()
		}
	}
}

// WatchContext aborts the world as soon as ctx is cancelled. The returned
// stop function releases the watcher goroutine (and must be called to avoid
// leaking it); it blocks until the watcher has exited.
func (w *World) WatchContext(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			w.Abort()
		case <-done:
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// SetTracer attaches a span tracer to the world. Pass nil to disable (the
// default). Call before Run: the field is read without synchronization by
// rank goroutines.
func (w *World) SetTracer(t *obs.Tracer) { w.tracer = t }

// Tracer returns the world's span tracer (nil when tracing is disabled).
// Layers above the substrate use it to record their own spans on the same
// per-rank tracks as the exchange spans.
func (c *Comm) Tracer() *obs.Tracer { return c.world.tracer }

// Run executes fn once per rank, each on its own goroutine, and returns
// when all ranks have finished. A panic on any rank is re-raised on the
// caller's goroutine after the others complete or block permanently; Run
// must therefore only be used with SPMD functions that terminate. Abort
// unwindings (ranks cut short by World.Abort / a cancelled WatchContext)
// are not crashes and are swallowed; callers detect them via Err() and
// their context.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, len(w.local))
	for i, r := range w.local {
		wg.Add(1)
		go func(i, rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[i] = p
				}
			}()
			fn(&Comm{rank: rank, world: w})
		}(i, r)
	}
	wg.Wait()
	for i, p := range panics {
		if p == nil {
			continue
		}
		if _, ok := p.(abortSignal); ok {
			continue
		}
		panic(fmt.Sprintf("mpi: rank %d panicked: %v", w.local[i], p))
	}
}

// statsOf assembles the Stats snapshot of one rank.
func (w *World) statsOf(r int) Stats {
	c := &w.counters[r]
	s := Stats{
		P2PMessages:       c.msgs[classP2P].Load(),
		P2PWords:          c.words[classP2P].Load(),
		CollMessages:      c.msgs[classColl].Load(),
		CollWords:         c.words[classColl].Load(),
		NeighborMessages:  c.msgs[classNbr].Load(),
		NeighborWords:     c.words[classNbr].Load(),
		DenseExchanges:    c.denseExch.Load(),
		NeighborExchanges: c.nbrExch.Load(),
	}
	s.MessagesSent = s.P2PMessages + s.CollMessages + s.NeighborMessages
	s.WordsSent = s.P2PWords + s.CollWords + s.NeighborWords
	return s
}

// TotalStats sums the per-rank statistics.
func (w *World) TotalStats() Stats {
	var s Stats
	for r := 0; r < w.size; r++ {
		s.Add(w.statsOf(r))
	}
	return s
}

// Comm is one rank's endpoint. It is not safe for concurrent use by
// multiple goroutines.
type Comm struct {
	rank  int
	world *World
	seq   int // collective sequence number; identical across ranks in SPMD code
}

// Rank returns this rank's ID in [0, Size()).
func (c *Comm) Rank() int { return c.rank }

// CheckAbort unwinds the calling rank (with the internal abort panic that
// Run swallows) if the world has been aborted. Collective phase loops call
// it at superstep boundaries so computing ranks notice a cancellation as
// fast as blocked ones.
func (c *Comm) CheckAbort() {
	if c.world.aborted.Load() {
		panic(abortSignal{})
	}
}

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// WorldStats sums the traffic counters of every rank hosted in this
// process (all ranks on the in-process transport). Unlike a collective it
// reads atomics only, so any rank (or an outside observer goroutine) may
// call it at any time; the snapshot is monotone but not a consistent cut.
func (c *Comm) WorldStats() Stats { return c.world.TotalStats() }

// LocalRankCount returns how many of the world's ranks run in this process
// (all of them on the in-process transport, typically one on TCP). Callers
// use it to split the machine's cores between co-hosted ranks.
func (c *Comm) LocalRankCount() int { return len(c.world.local) }

func (c *Comm) sendClass(dst int, kind msgKind, tag int, data []int64, class commClass) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("mpi: send to rank %d outside world of size %d", dst, c.world.size))
	}
	ctr := &c.world.counters[c.rank]
	ctr.msgs[class].Add(1)
	ctr.words[class].Add(int64(len(data)))
	c.world.tr.Send(transport.Frame{
		Src: c.rank, Dst: dst,
		Kind: uint8(kind), Tag: int32(tag),
		Payload: data,
	})
}

func (c *Comm) send(dst int, kind msgKind, tag int, data []int64) {
	class := classColl
	if kind == kindUser {
		class = classP2P
	}
	c.sendClass(dst, kind, tag, data, class)
}

func (c *Comm) recv(src int, kind msgKind, tag int) []int64 {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("mpi: recv from rank %d outside world of size %d", src, c.world.size))
	}
	return c.world.boxes[c.rank][src].pop(kind, tag)
}

// Send delivers data to dst with a user tag. It never blocks, and the
// caller may reuse data as soon as it returns.
func (c *Comm) Send(dst, tag int, data []int64) { c.send(dst, kindUser, tag, data) }

// Recv blocks until a user message with the given tag arrives from src and
// returns its payload.
func (c *Comm) Recv(src, tag int) []int64 { return c.recv(src, kindUser, tag) }

// nextSeq opens a collective. Every collective is an abort point, also on
// a rank that only sends in it or, in a one-rank world, never receives.
func (c *Comm) nextSeq() int {
	c.CheckAbort()
	c.seq++
	return c.seq
}

// Bcast distributes root's data to all ranks; every rank returns a copy of
// root's slice. Non-root callers may pass nil.
//
//parhip:collective
func (c *Comm) Bcast(root int, data []int64) []int64 {
	tag := c.nextSeq()
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.send(r, kindCollective, tag, data)
			}
		}
		cp := make([]int64, len(data))
		copy(cp, data)
		return cp
	}
	return c.recv(root, kindCollective, tag)
}

// Gather collects each rank's data at root. At root the result has one
// entry per rank, in rank order; elsewhere it is nil.
//
//parhip:collective
func (c *Comm) Gather(root int, data []int64) [][]int64 {
	tag := c.nextSeq()
	if c.rank == root {
		out := make([][]int64, c.Size())
		cp := make([]int64, len(data))
		copy(cp, data)
		out[root] = cp
		for r := 0; r < c.Size(); r++ {
			if r != root {
				out[r] = c.recv(r, kindCollective, tag)
			}
		}
		return out
	}
	c.send(root, kindCollective, tag, data)
	return nil
}

// Allgatherv collects every rank's (variable-length) data on every rank,
// returned in rank order.
//
//parhip:collective
func (c *Comm) Allgatherv(data []int64) [][]int64 {
	parts := c.Gather(0, data)
	// Flatten with a length prefix so one Bcast suffices.
	var flat []int64
	if c.rank == 0 {
		flat = append(flat, int64(len(parts)))
		for _, p := range parts {
			flat = append(flat, int64(len(p)))
		}
		for _, p := range parts {
			flat = append(flat, p...)
		}
	}
	flat = c.Bcast(0, flat)
	cnt := int(flat[0])
	out := make([][]int64, cnt)
	off := 1 + cnt
	for r := 0; r < cnt; r++ {
		l := int(flat[1+r])
		out[r] = flat[off : off+l : off+l]
		off += l
	}
	return out
}

// reduceOp combines b into a element-wise; slices have equal length.
type reduceOp func(a, b []int64)

func opSum(a, b []int64) {
	for i := range a {
		a[i] += b[i]
	}
}

func opMax(a, b []int64) {
	for i := range a {
		if b[i] > a[i] {
			a[i] = b[i]
		}
	}
}

// Abort aborts the world (World.Abort) from inside a rank, the analogue of
// MPI_Abort. A rank that detects a protocol violation calls it and then
// panics with the fault: Run re-raises that panic, while every other rank,
// local or remote, unwinds instead of waiting for data that never comes.
func (c *Comm) Abort() { c.world.Abort() }

func (c *Comm) allreduce(vals []int64, op reduceOp) []int64 {
	tag := c.nextSeq()
	if c.rank == 0 {
		acc := make([]int64, len(vals))
		copy(acc, vals)
		for r := 1; r < c.Size(); r++ {
			part := c.recv(r, kindCollective, tag)
			if len(part) != len(acc) {
				c.Abort()
				panic(fmt.Sprintf("mpi: allreduce length mismatch: rank 0 has %d, rank %d has %d",
					len(acc), r, len(part)))
			}
			op(acc, part)
		}
		for r := 1; r < c.Size(); r++ {
			c.send(r, kindCollective, tag, acc)
		}
		return acc
	}
	c.send(0, kindCollective, tag, vals)
	return c.recv(0, kindCollective, tag)
}

// AllreduceSum returns the element-wise sum of vals across all ranks.
// All ranks must pass slices of equal length.
//
//parhip:collective
func (c *Comm) AllreduceSum(vals []int64) []int64 { return c.allreduce(vals, opSum) }

// AllreduceMax returns the element-wise maximum of vals across all ranks.
//
//parhip:collective
func (c *Comm) AllreduceMax(vals []int64) []int64 { return c.allreduce(vals, opMax) }

// AllreduceSum1 is AllreduceSum for a single value.
//
//parhip:collective
func (c *Comm) AllreduceSum1(v int64) int64 { return c.AllreduceSum([]int64{v})[0] }

// AllreduceMax1 is AllreduceMax for a single value.
//
//parhip:collective
func (c *Comm) AllreduceMax1(v int64) int64 { return c.AllreduceMax([]int64{v})[0] }

// ExScanSum returns the exclusive prefix sum of v over ranks: rank r gets
// sum of the values passed by ranks 0..r-1 (0 at rank 0). The paper uses
// this to map distinct cluster IDs to a contiguous coarse ID space (§IV-C).
//
//parhip:collective
func (c *Comm) ExScanSum(v int64) int64 {
	var sum int64
	for _, p := range c.Allgatherv([]int64{v})[:c.rank] {
		sum += p[0]
	}
	return sum
}

// Alltoallv performs a personalized all-to-all exchange: out[p] is sent to
// rank p (nil and empty slices allowed; out must have Size() entries), and
// the result's entry r holds the slice received from rank r; entry Rank()
// is out[Rank()] itself. It is AlltoallvFunc over prebuilt buffers.
//
//parhip:collective
func (c *Comm) Alltoallv(out [][]int64) [][]int64 {
	if len(out) != c.Size() {
		panic(fmt.Sprintf("mpi: Alltoallv with %d buffers for %d ranks", len(out), c.Size()))
	}
	in := make([][]int64, c.Size())
	c.AlltoallvFunc(func(dst int, _ []int64) []int64 { return out[dst] },
		func(src int, data []int64) { in[src] = data })
	return in
}

// AlltoallvFunc is the personalized all-to-all whose payloads are built one
// destination at a time. build(dst, scratch) returns the payload for rank
// dst, usually by appending to scratch: it is called for every other rank
// in ascending order and then for this rank, and scratch is the slice the
// previous call returned, truncated to length 0 (nil on the first call). A
// remote payload is sent as soon as it is built, so one scratch buffer
// serves every destination; this rank's own payload is built last and
// handed to recv as built, with no copy.
//
// recv is invoked once per source rank (ascending rank order, this rank
// included) with the payload received from it, and owns it, as every
// receiver does. A caller that keeps the received payloads therefore holds
// each remote record once.
//
//parhip:collective
func (c *Comm) AlltoallvFunc(build func(dst int, scratch []int64) []int64, recv func(src int, data []int64)) {
	sp := c.world.tracer.Begin(c.rank, "mpi.alltoallv")
	tag := c.nextSeq()
	c.world.counters[c.rank].denseExch.Add(1)
	var words int64
	var scratch []int64
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			continue
		}
		scratch = build(r, scratch[:0])
		words += int64(len(scratch))
		c.send(r, kindCollective, tag, scratch)
	}
	own := build(c.rank, scratch[:0])
	for r := 0; r < c.Size(); r++ {
		if r == c.rank {
			recv(r, own)
			continue
		}
		recv(r, c.recv(r, kindCollective, tag))
	}
	c.world.tracer.End2(sp, "words_sent", words, "msgs", int64(c.Size()-1))
}

// NeighborAlltoallv is the sparse counterpart of AlltoallvFunc, the
// analogue of MPI_Neighbor_alltoallv: out[i] is sent to rank nbrs[i] (nil
// entries send an empty message) and recv is invoked once per neighbor, in
// list order, with the payload received from it. No message reaches a rank
// outside nbrs, so a rank with few neighbors sends few messages however
// large the world. Like every receiver, recv owns the data it is handed,
// and the caller may refill out as soon as the call returns.
//
// The neighbor relation must be symmetric (rank a lists b iff b lists a),
// or one side blocks forever; the caller that derives the lists checks
// that once. Every rank of the world calls in the same order (SPMD, ranks
// with no neighbors included, for which the call is free), but the call
// synchronizes neighbors only.
//
//parhip:collective
func (c *Comm) NeighborAlltoallv(nbrs []int, out [][]int64, recv func(i int, data []int64)) {
	if len(out) != len(nbrs) {
		panic(fmt.Sprintf("mpi: NeighborAlltoallv with %d buffers for %d neighbors",
			len(out), len(nbrs)))
	}
	sp := c.world.tracer.Begin(c.rank, "mpi.neighbor_alltoallv")
	tag := c.nextSeq()
	c.world.counters[c.rank].nbrExch.Add(1)
	var words int64
	for i, r := range nbrs {
		words += int64(len(out[i]))
		c.sendClass(r, kindCollective, tag, out[i], classNbr)
	}
	for i, r := range nbrs {
		recv(i, c.recv(r, kindCollective, tag))
	}
	c.world.tracer.End2(sp, "words_sent", words, "msgs", int64(len(nbrs)))
}
