package testutil

import (
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
