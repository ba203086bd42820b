package mpi

import (
	"fmt"
	"sort"
)

// Topology is a fixed sparse communication graph over the world's ranks,
// the analogue of an MPI distributed graph communicator
// (MPI_Dist_graph_create_adjacent). It is created collectively with
// NewTopology and then supports neighborhood collectives that exchange data
// with the adjacent ranks only — a rank with few neighbors sends few
// messages, no matter how large the world is.
//
// Like every collective here, neighborhood exchanges rely on SPMD
// discipline: all ranks of the world must call NeighborAlltoallv the same
// number of times in the same order (ranks with zero neighbors included;
// for them the call is free).
type Topology struct {
	c    *Comm
	nbrs []int
}

// NewTopology creates a topology whose local neighborhood is the given rank
// list. neighbors must be strictly ascending, within the world, and must
// not contain the calling rank. The neighbor relation must be symmetric
// (rank a lists b iff b lists a); NewTopology verifies this with one dense
// exchange — construction is per level, not per superstep, so the cost is
// paid once — and poisons the world on violation. Collective.
//
//parhip:collective
func NewTopology(c *Comm, neighbors []int) *Topology {
	for i, r := range neighbors {
		if r < 0 || r >= c.Size() {
			panic(fmt.Sprintf("mpi: topology neighbor %d outside world of size %d", r, c.Size()))
		}
		if r == c.Rank() {
			panic(fmt.Sprintf("mpi: rank %d listed itself as a topology neighbor", r))
		}
		if i > 0 && neighbors[i-1] >= r {
			panic(fmt.Sprintf("mpi: topology neighbors not strictly ascending at index %d", i))
		}
	}
	t := &Topology{c: c, nbrs: append([]int(nil), neighbors...)}

	// Symmetry check: every rank tells every other rank whether it considers
	// it a neighbor; both sides must agree or neighborhood exchanges would
	// leave one side blocked forever. One dense all-to-all at construction
	// buys a loud, immediate failure instead.
	out := make([][]int64, c.Size())
	for _, r := range t.nbrs {
		out[r] = []int64{1}
	}
	in := c.Alltoallv(out)
	for r := 0; r < c.Size(); r++ {
		if r == c.Rank() {
			continue
		}
		theirs := len(in[r]) > 0
		mine := t.hasNeighbor(r)
		if theirs != mine {
			c.PoisonPeers()
			panic(fmt.Sprintf("mpi: asymmetric topology: rank %d lists %d as neighbor=%v, reverse=%v",
				c.Rank(), r, mine, theirs))
		}
	}
	return t
}

func (t *Topology) hasNeighbor(r int) bool {
	i := sort.SearchInts(t.nbrs, r)
	return i < len(t.nbrs) && t.nbrs[i] == r
}

// Comm returns the rank endpoint the topology was built on.
func (t *Topology) Comm() *Comm { return t.c }

// Degree returns the number of adjacent ranks.
func (t *Topology) Degree() int { return len(t.nbrs) }

// Neighbors returns the adjacent ranks in ascending order. The slice must
// not be modified.
func (t *Topology) Neighbors() []int { return t.nbrs }

// NeighborAlltoallv sends out[i] to the i-th neighbor (out is parallel to
// Neighbors; nil entries send an empty message) and invokes recv once per
// neighbor, in neighbor order, with the payload received from it. Data is
// exchanged with adjacent ranks only — no message ever reaches a
// non-adjacent rank. The data slice passed to recv is only valid during the
// callback; it is recycled through the world's buffer pool afterwards, so
// the steady path allocates no receive buffers. Collective over the whole
// world (SPMD order), but a synchronization point only between neighbors.
func (t *Topology) NeighborAlltoallv(out [][]int64, recv func(i int, data []int64)) {
	c := t.c
	if len(out) != len(t.nbrs) {
		panic(fmt.Sprintf("mpi: NeighborAlltoallv with %d buffers for %d neighbors",
			len(out), len(t.nbrs)))
	}
	sp := c.world.tracer.Begin(c.rank, "mpi.neighbor_alltoallv")
	tag := c.nextSeq()
	c.world.counters[c.rank].nbrExch.Add(1)
	var words int64
	for i, r := range t.nbrs {
		words += int64(len(out[i]))
		c.sendClass(r, kindCollective, tag, out[i], classNbr)
	}
	for i, r := range t.nbrs {
		data := c.recv(r, kindCollective, tag)
		recv(i, data)
		c.world.putBuf(data)
	}
	c.world.tracer.End2(sp, "words_sent", words, "msgs", int64(len(t.nbrs)))
}

// Sharder groups values by destination rank and exchanges them in one dense
// all-to-all, replacing the hand-rolled
//
//	out := make([][]int64, size); out[dst] = append(out[dst], ...)
//
// pattern. The per-destination buffers live in the Sharder and are reused
// across Exchange calls (capacity is retained), so repeated exchanges
// allocate nothing once warm. A Sharder belongs to one rank's Comm and is
// not safe for concurrent use.
type Sharder struct {
	c   *Comm
	out [][]int64
}

// NewSharder returns an empty sharder over c's world.
func NewSharder(c *Comm) *Sharder {
	return &Sharder{c: c, out: make([][]int64, c.Size())}
}

// Add appends vals to the buffer destined for rank dst.
func (s *Sharder) Add(dst int, vals ...int64) {
	s.out[dst] = append(s.out[dst], vals...)
}

// Exchange performs the all-to-all (see AlltoallvFunc for the callback
// contract) and resets the staged buffers for reuse. Collective.
//
//parhip:collective
func (s *Sharder) Exchange(recv func(src int, data []int64)) {
	s.c.AlltoallvFunc(s.out, recv)
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
}
