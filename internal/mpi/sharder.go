package mpi

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
