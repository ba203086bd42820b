package testutil

import (
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// KernelGraph returns a 160-node graph with what the move-selection
// kernels' exactness arguments must survive: locality (a ring lattice, so
// that region-shaped labels or blocks leave interior nodes), a few random
// long edges, node weights 1..3, isolated nodes, and a hub (node 0) of
// degree > 64, past a fresh hash accumulator's capacity. Edge weights are
// drawn from 1..maxEdgeWeight; 1 makes rating ties — where the tie-break
// draws and the previous-block pinning happen — common.
func KernelGraph(r *rng.RNG, maxEdgeWeight int64) *graph.Graph {
	const n = 160
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.SetNodeWeight(v, 1+r.Int64n(3))
	}
	isolated := func(v int32) bool { return v%17 == 5 }
	for v := int32(0); v < n; v++ {
		for _, u := range []int32{(v + 1) % n, (v + 2) % n, r.Int31n(n)} {
			if u != v && !isolated(u) && !isolated(v) && (u < v+3 || r.Intn(4) == 0) {
				b.AddEdgeW(v, u, 1+r.Int64n(maxEdgeWeight))
			}
		}
	}
	for i := 0; i < 80; i++ {
		if u := 1 + r.Int31n(n-1); !isolated(u) {
			b.AddEdgeW(0, u, 1+r.Int64n(maxEdgeWeight))
		}
	}
	return b.Build()
}

// Complete returns the complete graph on n unit-weight nodes.
func Complete(n int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for u := int32(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Star returns a star with one centre (node 0) and n-1 leaves.
func Star(n int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		b.AddEdge(0, v)
	}
	return b.Build()
}

// StarOfCliques returns a pathological complex-network shape: hub nodes
// connected to many cliques. Matching-based coarsening stalls on it (stars
// admit only one matched edge), while cluster contraction collapses each
// clique.
func StarOfCliques(cliques, cliqueSize int32, seed uint64) *graph.Graph {
	n := cliques*cliqueSize + 1
	b := graph.NewBuilder(n)
	hub := graph.NodeID(0)
	for c := int32(0); c < cliques; c++ {
		base := 1 + c*cliqueSize
		for i := int32(0); i < cliqueSize; i++ {
			for j := i + 1; j < cliqueSize; j++ {
				b.AddEdge(base+i, base+j)
			}
		}
		b.AddEdge(hub, base)
	}
	return b.Build()
}

// HubMesh returns a Delaunay-like mesh of meshNodes nodes plus hubs extra
// centre nodes, each adjacent to reach random mesh nodes. A centre sees more
// distinct clusters than a fresh accumulator's capacity (64), at connection
// strengths that keep changing while the mesh clusters merge, so whatever a
// move-selection kernel lets depend on capacity history or evaluation order
// shows here (the hub family of the worker bit-identity and golden tests).
// Centres are spread over the ID range so every rank owns its share.
func HubMesh(meshNodes, hubs, reach int32, seed uint64) *graph.Graph {
	mesh := gen.DelaunayLike(meshNodes, seed)
	n := mesh.NumNodes() + hubs
	var centres, meshID []graph.NodeID
	for v := int32(0); v < n; v++ {
		if v%(n/hubs) == 0 && int32(len(centres)) < hubs {
			centres = append(centres, v)
		} else {
			meshID = append(meshID, v)
		}
	}
	b := graph.NewBuilder(n)
	for v := int32(0); v < mesh.NumNodes(); v++ {
		for _, u := range mesh.Neighbors(v) {
			if v < u {
				b.AddEdge(meshID[v], meshID[u])
			}
		}
	}
	r := rng.New(seed)
	for _, h := range centres {
		for i := int32(0); i < reach; i++ {
			b.AddEdge(h, meshID[r.Int31n(mesh.NumNodes())])
		}
	}
	return b.Build()
}

// WeightedDegree returns the sum of edge weights incident to v.
func WeightedDegree(g *graph.Graph, v graph.NodeID) int64 {
	var s int64
	for _, w := range g.EdgeWeights(v) {
		s += w
	}
	return s
}

// IsConnected reports whether g has exactly one connected component (the
// empty graph is considered connected).
func IsConnected(g *graph.Graph) bool {
	_, cnt := graph.ConnectedComponents(g)
	return cnt <= 1
}
