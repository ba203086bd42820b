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
	"errors"
	"fmt"
	"sync/atomic"
)

// NodeID identifies a node. IDs are dense in [0, n).
type NodeID = int32

// Graph is an undirected graph in CSR form. The neighbours of node v are
// Adj[XAdj[v]:XAdj[v+1]] with parallel edge weights in AdjW. NW holds node
// weights. All fields may be read directly; mutate only through Builder.
//
// AdjW is nil when every edge weight is 1: a unit-weight graph stores no
// weights, and EdgeWeights serves its rows from one shared slice of ones.
// Readers of AdjW must handle nil; EdgeWeights does it for them.
type Graph struct {
	XAdj []int64  // length n+1; XAdj[0] == 0
	Adj  []NodeID // length 2m; neighbour lists
	AdjW []int64  // length 2m or nil (all weights 1); parallel to Adj
	NW   []int64  // length n; node weights
}

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
// modified.
func (g *Graph) EdgeWeights(v NodeID) []int64 {
	lo, hi := g.XAdj[v], g.XAdj[v+1]
	if g.AdjW == nil {
		return UnitWeights(int(hi - lo))
	}
	return g.AdjW[lo:hi]
}

// ones backs UnitWeights. A caller that needs more ones than it holds
// stores a longer slice; slices handed out earlier keep their array, and
// two callers that grow it at once each return their own ones.
var ones atomic.Pointer[[]int64]

// UnitWeights returns n ones: the edge weights of a row of n arcs in a
// graph without stored weights. The slice is a capacity-limited prefix of
// an array that every caller shares, so it must not be written. A caller
// that reads many rows takes the longest once and reslices it.
func UnitWeights(n int) []int64 {
	var s []int64
	if p := ones.Load(); p != nil {
		s = *p
	}
	if len(s) < n {
		s = fillOnes(make([]int64, max(n, 2*len(s), 1024)))
		ones.Store(&s)
	}
	return s[:n:n]
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
// first violation found.
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
		}
	}
	return g.validateSymmetry()
}

func (g *Graph) validateSymmetry() error {
	n := g.NumNodes()
	for v := int32(0); v < n; v++ {
		for i := g.XAdj[v]; i < g.XAdj[v+1]; i++ {
			u := g.Adj[i]
			found := false
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				if g.Adj[j] == v && (g.AdjW == nil || g.AdjW[j] == g.AdjW[i]) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: edge (%d,%d,w=%d) has no symmetric twin", v, u, g.EdgeWeights(v)[i-g.XAdj[v]])
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
