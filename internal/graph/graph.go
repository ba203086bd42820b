// Package graph provides the sequential compressed-sparse-row graph type
// used throughout the partitioner, together with builders, validation,
// traversal utilities and METIS-format I/O.
//
// Graphs are undirected and stored as symmetric adjacency arrays: every
// undirected edge {u, v} appears twice, once in the list of u and once in
// the list of v, with equal weight. Node and edge weights are positive
// int64 values. This matches the representation in the paper (§II-A,
// §IV-A): "the subgraphs are stored using a standard adjacency array
// representation".
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense in [0, n).
type NodeID = int32

// Graph is an undirected graph in CSR form. The neighbours of node v are
// Adj[XAdj[v]:XAdj[v+1]] with parallel edge weights in AdjW. NW holds node
// weights. All fields may be read directly; mutate only through Builder.
//
// A built graph does not change. What is derived from it assumes so: a
// fingerprint noted on the graph with NoteFingerprint stands for the
// graph's own, and a partition computed on the graph takes it instead of
// hashing the graph. Writing to the arrays of a noted graph makes the note
// wrong; build a new graph instead.
//
// AdjW is nil when every edge weight is 1: a unit-weight graph stores no
// weights, and EdgeWeights serves its rows from one shared slice of ones.
// Readers of AdjW must handle nil; EdgeWeights does it for them.
type Graph struct {
	XAdj []int64  // length n+1; XAdj[0] == 0
	Adj  []NodeID // length 2m; neighbour lists
	AdjW []int64  // length 2m or nil (all weights 1); parallel to Adj
	NW   []int64  // length n; node weights

	fp string // Fingerprint(), when noted with NoteFingerprint; else ""
}

// NoteFingerprint records fp, which must be g.Fingerprint(), on g, so that
// a partition computed on g takes it instead of hashing g again. The
// holder of a new graph calls it once, before it shares the graph.
func NoteFingerprint(g *Graph, fp string) { g.fp = fp }

// NotedFingerprint returns the fingerprint noted on g, or "".
func NotedFingerprint(g *Graph) string { return g.fp }

// NumNodes returns n, the number of nodes.
func (g *Graph) NumNodes() int32 { return int32(len(g.NW)) }

// NumEdges returns m, the number of undirected edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.Adj)) / 2 }

// Degree returns the number of incident edge endpoints of v.
func (g *Graph) Degree(v NodeID) int32 {
	return int32(g.XAdj[v+1] - g.XAdj[v])
}

// Neighbors returns the neighbour slice of v. The slice aliases the graph's
// storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.Adj[g.XAdj[v]:g.XAdj[v+1]]
}

// EdgeWeights returns the edge-weight slice of v, parallel to Neighbors(v).
// The slice aliases the graph's storage, or for a graph without stored
// weights the shared slice of UnitWeights; either way it must not be
// modified. It makes no call, so it inlines into the loops over rows.
func (g *Graph) EdgeWeights(v NodeID) []int64 {
	lo, hi := g.XAdj[v], g.XAdj[v+1]
	if g.AdjW == nil {
		return (*ones.Load())[: hi-lo : hi-lo]
	}
	return g.AdjW[lo:hi]
}

// ones backs UnitWeights and EdgeWeights. It only ever grows: a caller that
// needs more ones than it holds swaps in a longer slice, and slices handed
// out earlier keep their array. Every constructor of a graph without stored
// weights grows it to the graph's longest row (reserveUnitRows), so
// EdgeWeights slices it unchecked.
var ones atomic.Pointer[[]int64]

func init() {
	s := fillOnes(make([]int64, 1024))
	ones.Store(&s)
}

// UnitWeights returns n ones: the edge weights of a row of n arcs in a
// graph without stored weights. The slice is a capacity-limited prefix of
// an array that every caller shares, so it must not be written. A caller
// that reads many rows takes the longest once and reslices it.
func UnitWeights(n int) []int64 {
	for {
		p := ones.Load()
		if len(*p) >= n {
			return (*p)[:n:n]
		}
		s := fillOnes(make([]int64, max(n, 2*len(*p))))
		if ones.CompareAndSwap(p, &s) {
			return s[:n:n]
		}
	}
}

// reserveUnitRows grows the shared ones to g's longest row when g stores no
// weights, and returns g. A row longer than Adj is not valid, and is not
// reserved for.
func reserveUnitRows(g *Graph) *Graph {
	if g.AdjW == nil {
		UnitWeights(min(int(g.MaxDegree()), len(g.Adj)))
	}
	return g
}

// fillOnes sets every element of s to 1 and returns s.
func fillOnes(s []int64) []int64 {
	for i := range s {
		s[i] = 1
	}
	return s
}

// TotalNodeWeight returns the sum of all node weights.
func (g *Graph) TotalNodeWeight() int64 {
	var s int64
	for _, w := range g.NW {
		s += w
	}
	return s
}

// TotalEdgeWeight returns the sum of weights over undirected edges (each
// edge counted once).
func (g *Graph) TotalEdgeWeight() int64 {
	if g.AdjW == nil {
		return int64(len(g.Adj)) / 2
	}
	var s int64
	for _, w := range g.AdjW {
		s += w
	}
	return s / 2
}

// MaxDegree returns the largest degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int32 {
	var md int32
	for v := int32(0); v < g.NumNodes(); v++ {
		if d := g.Degree(v); d > md {
			md = d
		}
	}
	return md
}

// Validate checks structural invariants: monotone XAdj, in-range neighbour
// IDs, positive weights, no self-loops and symmetric adjacency (every edge
// (u,v,w) has a matching (v,u,w)). It returns a descriptive error for the
// first violation found. The symmetry check takes O(m) time when every row
// is strictly ascending, as every writer in this module leaves it, and
// O(m log d) otherwise.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.XAdj) != int(n)+1 {
		return fmt.Errorf("graph: len(XAdj)=%d, want n+1=%d", len(g.XAdj), n+1)
	}
	if g.XAdj[0] != 0 {
		return errors.New("graph: XAdj[0] != 0")
	}
	if g.AdjW != nil && len(g.Adj) != len(g.AdjW) {
		return fmt.Errorf("graph: len(Adj)=%d != len(AdjW)=%d", len(g.Adj), len(g.AdjW))
	}
	if g.XAdj[n] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: XAdj[n]=%d, want len(Adj)=%d", g.XAdj[n], len(g.Adj))
	}
	for v := int32(0); v < n; v++ {
		if g.XAdj[v+1] < g.XAdj[v] {
			return fmt.Errorf("graph: XAdj not monotone at node %d", v)
		}
		if g.NW[v] <= 0 {
			return fmt.Errorf("graph: non-positive weight %d at node %d", g.NW[v], v)
		}
	}
	ascending := true
	for v := int32(0); v < n; v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			u := g.Adj[i]
			if u < 0 || u >= n {
				return fmt.Errorf("graph: neighbour %d of node %d out of range", u, v)
			}
			if u == v {
				return fmt.Errorf("graph: self-loop at node %d", v)
			}
			if g.AdjW != nil && g.AdjW[i] <= 0 {
				return fmt.Errorf("graph: non-positive edge weight %d on (%d,%d)", g.AdjW[i], v, u)
			}
			ascending = ascending && (i == g.XAdj[v] || g.Adj[i-1] < u)
		}
	}
	if ascending && g.twinsInOrder() {
		return nil
	}
	return g.searchTwins()
}

// twinsInOrder reports whether every arc (v,u,w) of a graph with strictly
// ascending rows has its twin (u,v,w). It matches each arc to a higher
// neighbour, v < u, with an entry of row u below u: taken by ascending v,
// these arcs must meet those entries in order, so one cursor per row
// matches each arc to its twin. Each cursor must end at its row's first
// entry above u, or its end, so every entry below u was matched once and
// is the twin of an arc to a higher neighbour; every arc is one or the
// other.
func (g *Graph) twinsInOrder() bool {
	next := make([]int64, g.NumNodes())
	copy(next, g.XAdj)
	for v := int32(0); v < g.NumNodes(); v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			u := g.Adj[i]
			if u < v {
				continue
			}
			j := next[u]
			if j >= int64(len(g.Adj)) || g.Adj[j] != v || g.AdjW != nil && g.AdjW[j] != g.AdjW[i] {
				return false
			}
			next[u] = j + 1
		}
	}
	for u, j := range next {
		if end := g.XAdj[u+1]; j > end || j < end && g.Adj[j] < NodeID(u) {
			return false
		}
	}
	return true
}

// searchTwins checks, arc by arc in row order, that each arc (v,u,w) has an
// equal-weight twin (u,v,w), binary-searching a copy of row u sorted by
// neighbour and weight, and reports the first arc without one.
func (g *Graph) searchTwins() error {
	type arc struct {
		to NodeID
		w  int64
	}
	byArc := func(a, b arc) int {
		if c := cmp.Compare(a.to, b.to); c != 0 {
			return c
		}
		return cmp.Compare(a.w, b.w)
	}
	sorted := make([]arc, len(g.Adj))
	for i, u := range g.Adj {
		sorted[i] = arc{u, 1}
		if g.AdjW != nil {
			sorted[i].w = g.AdjW[i]
		}
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		slices.SortFunc(sorted[g.XAdj[v]:g.XAdj[v+1]], byArc)
	}
	for v := int32(0); v < g.NumNodes(); v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			u, w := g.Adj[i], int64(1)
			if g.AdjW != nil {
				w = g.AdjW[i]
			}
			if _, ok := slices.BinarySearchFunc(sorted[g.XAdj[u]:g.XAdj[u+1]], arc{v, w}, byArc); !ok {
				return fmt.Errorf("graph: edge (%d,%d,w=%d) has no symmetric twin", v, u, w)
			}
		}
	}
	return nil
}

// EdgeKey packs an undirected edge {u, v} into one comparable key (the
// smaller endpoint in the high half), so overlay maps and delta sets can
// index edges without caring about direction.
func EdgeKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// EdgeKeyEndpoints unpacks a key produced by EdgeKey, returning the smaller
// endpoint first.
func EdgeKeyEndpoints(k uint64) (NodeID, NodeID) {
	return NodeID(k >> 32), NodeID(uint32(k))
}

// HasEdge reports whether {u, v} is an edge and returns its weight.
func (g *Graph) HasEdge(u, v NodeID) (int64, bool) {
	for i, x := range g.Neighbors(u) {
		if x == v {
			return g.EdgeWeights(u)[i], true
		}
	}
	return 0, false
}

// String returns a short summary, e.g. "graph(n=100, m=250)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}
