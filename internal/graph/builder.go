package graph

import "fmt"

// Builder accumulates an edge list and produces a validated CSR graph.
// Edges may be added in either or both directions and in any order;
// duplicates are merged by summing their weights. Self-loops are rejected
// with a panic, like the other structural errors: the graph model is
// simple and undirected (Validate enforces the same invariant), and
// silently dropping them — the old behavior — hid generator bugs. Node
// weights default to 1.
type Builder struct {
	n       int32
	nw      []int64
	srcs    []NodeID
	dsts    []NodeID
	weights []int64
}

// NewBuilder returns a builder for a graph with n nodes, all with weight 1.
func NewBuilder(n int32) *Builder {
	nw := make([]int64, n)
	for i := range nw {
		nw[i] = 1
	}
	return &Builder{n: n, nw: nw}
}

// SetNodeWeight sets the weight of node v. It panics if v is out of range
// or w is not positive.
func (b *Builder) SetNodeWeight(v NodeID, w int64) {
	if v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: SetNodeWeight node %d out of range [0,%d)", v, b.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: SetNodeWeight non-positive weight %d", w))
	}
	b.nw[v] = w
}

// AddEdge records the undirected edge {u, v} with weight 1. It panics on
// out-of-range endpoints and on self-loops (u == v).
func (b *Builder) AddEdge(u, v NodeID) { b.AddEdgeW(u, v, 1) }

// AddEdgeW records the undirected edge {u, v} with weight w. It panics on
// out-of-range endpoints, non-positive weight, or a self-loop (u == v) —
// the graph model is simple; callers sampling random endpoint pairs must
// skip or resample coincident pairs.
func (b *Builder) AddEdgeW(u, v NodeID, w int64) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: AddEdgeW endpoint out of range: (%d,%d), n=%d", u, v, b.n))
	}
	if w <= 0 {
		panic(fmt.Sprintf("graph: AddEdgeW non-positive weight %d", w))
	}
	if u == v {
		panic(fmt.Sprintf("graph: AddEdgeW self-loop at node %d (self-loops are not representable; skip or resample)", u))
	}
	b.srcs = append(b.srcs, u)
	b.dsts = append(b.dsts, v)
	b.weights = append(b.weights, w)
}

// Build produces the CSR graph. Duplicate edges (recorded in the same or
// opposite directions) are merged by summing weights.
func (b *Builder) Build() *Graph {
	n := b.n
	// Symmetrize: every recorded edge contributes both directions.
	total := 2 * len(b.srcs)
	deg := make([]int64, n+1)
	for i := range b.srcs {
		deg[b.srcs[i]+1]++
		deg[b.dsts[i]+1]++
	}
	for v := int32(0); v < n; v++ {
		deg[v+1] += deg[v]
	}
	adj := make([]NodeID, total)
	adjw := make([]int64, total)
	pos := make([]int64, n)
	for i := range b.srcs {
		u, v, w := b.srcs[i], b.dsts[i], b.weights[i]
		p := deg[u] + pos[u]
		adj[p], adjw[p] = v, w
		pos[u]++
		p = deg[v] + pos[v]
		adj[p], adjw[p] = u, w
		pos[v]++
	}
	// Sort each adjacency list and merge duplicates, compacting in place.
	out := CanonicalizeCSR(deg, adj, adjw, &RowScratch[NodeID]{})
	return &Graph{
		XAdj: deg,
		Adj:  adj[:out:out],
		AdjW: adjw[:out:out],
		NW:   b.nw,
	}
}

// FromCSR constructs a graph directly from CSR arrays without copying.
// The caller asserts the arrays already satisfy the Graph invariants;
// Validate can be used to check.
func FromCSR(xadj []int64, adj []NodeID, adjw, nw []int64) *Graph {
	return &Graph{XAdj: xadj, Adj: adj, AdjW: adjw, NW: nw}
}

// Path returns a path graph with n unit-weight nodes.
func Path(n int32) *Graph {
	b := NewBuilder(n)
	for v := int32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Cycle returns a cycle graph with n unit-weight nodes (n >= 3).
func Cycle(n int32) *Graph {
	b := NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Complete returns the complete graph on n unit-weight nodes.
func Complete(n int32) *Graph {
	b := NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns a star with one centre (node 0) and n-1 leaves.
func Star(n int32) *Graph {
	b := NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// Grid2D returns the rows x cols grid graph with 4-neighbour connectivity.
func Grid2D(rows, cols int32) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int32) NodeID { return r*cols + c }
	for r := int32(0); r < rows; r++ {
		for c := int32(0); c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}
