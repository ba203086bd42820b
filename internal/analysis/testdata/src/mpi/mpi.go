// Package mpi is a fixture stub of the project's communicator. Its
// primitives carry the same //parhip:collective directive as the real
// internal/mpi, so this stub exercises the same code paths without
// dragging the full transport into fixture loads.
package mpi

// Comm is the per-rank handle.
type Comm struct {
	rank, size int
}

// Rank returns this rank's index.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.size }

// Barrier blocks until every rank arrives.
//
//parhip:collective
func (c *Comm) Barrier() {}

// Err reports the first transport failure observed by this process's
// world (nil while healthy). Not a collective: it reads local state.
func (c *Comm) Err() error { return nil }

// Bcast broadcasts from rank 0.
//
//parhip:collective
func (c *Comm) Bcast(xs []int64) {}

// Allgatherv concatenates every rank's contribution.
//
//parhip:collective
func (c *Comm) Allgatherv(xs []int64) []int64 { return xs }

// AllreduceSum1 sums a scalar across ranks.
//
//parhip:collective
func (c *Comm) AllreduceSum1(x int64) int64 { return x }

// World runs an SPMD body on every rank.
type World struct{ comms []*Comm }

// Run invokes f once per rank.
func (w *World) Run(f func(c *Comm)) {
	for _, c := range w.comms {
		f(c)
	}
}
