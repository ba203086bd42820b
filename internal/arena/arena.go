// Package arena provides a slab-based bump allocator for the per-level
// scratch of the partitioning pipeline: traversal orders, dirty sets,
// proposal buffers and hash-table backing arrays that live for exactly one
// pipeline stage. Instead of reallocating them on every V-cycle level and
// label-propagation round, a stage allocates from the rank's arena and the
// caller calls Reset when the stage's scratch is dead — the slabs are kept
// and recycled, so the steady state allocates nothing.
//
// An Arena is NOT safe for concurrent use: each rank owns one and
// allocates from it on that rank's goroutine only. Returned slices are
// zeroed — scratch contents must be a deterministic function of the run,
// never of what a recycled slab held before.
package arena

// slabMin is the smallest slab an arena allocates, in elements. Larger
// requests get a dedicated slab of exactly the requested size.
const slabMin = 4096

// slab is one growth unit of a typed sub-allocator.
type typedArena[T any] struct {
	slabs [][]T
	cur   int // index of the slab being bumped
	off   int // next free element in slabs[cur]
}

func (a *typedArena[T]) alloc(n int) []T {
	if n == 0 {
		return nil
	}
	for a.cur < len(a.slabs) {
		s := a.slabs[a.cur]
		if a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			clear(out)
			return out
		}
		a.cur++
		a.off = 0
	}
	size := n
	if size < slabMin {
		size = slabMin
	}
	s := make([]T, size)
	a.slabs = append(a.slabs, s)
	a.cur = len(a.slabs) - 1
	a.off = n
	return s[0:n:n]
}

func (a *typedArena[T]) reset() {
	a.cur = 0
	a.off = 0
}

// Arena hands out zeroed typed slices carved from recycled slabs. The zero
// value is ready to use; a nil *Arena is also valid — every allocator
// method falls back to a plain make, so callers can thread an optional
// arena without branching.
type Arena struct {
	i64  typedArena[int64]
	i32  typedArena[int32]
	ints typedArena[int]
	u64  typedArena[uint64]
	bs   typedArena[bool]
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// Int64s returns a zeroed []int64 of length n.
func (a *Arena) Int64s(n int) []int64 {
	if a == nil {
		return make([]int64, n)
	}
	return a.i64.alloc(n)
}

// Int32s returns a zeroed []int32 of length n.
//
//lint:rawslice-ok allocator primitive: the slice is raw scratch storage, not a partition
func (a *Arena) Int32s(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	return a.i32.alloc(n)
}

// Ints returns a zeroed []int of length n.
func (a *Arena) Ints(n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.ints.alloc(n)
}

// Uint64s returns a zeroed []uint64 of length n.
func (a *Arena) Uint64s(n int) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	return a.u64.alloc(n)
}

// Bools returns a zeroed []bool of length n.
func (a *Arena) Bools(n int) []bool {
	if a == nil {
		return make([]bool, n)
	}
	return a.bs.alloc(n)
}

// Reset recycles every slab: all slices previously handed out are dead and
// the next allocations reuse their memory. Nil-safe.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.i64.reset()
	a.i32.reset()
	a.ints.reset()
	a.u64.reset()
	a.bs.reset()
}
