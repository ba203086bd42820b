package kaffpa

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkRecursiveBisect runs the initial partitioner's recursive
// bisection on the shape rmat-tcp's stalled coarsening hands it — 55K nodes,
// 12.5K edges, mostly isolated nodes — where splitting the graph into
// induced subgraphs, not growing the bisections, is most of the work.
func BenchmarkRecursiveBisect(b *testing.B) {
	const n, m = 55000, 12500
	r := rng.New(42)
	bu := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		if u, v := r.Int31n(n), r.Int31n(n); u != v {
			bu.AddEdge(u, v)
		}
	}
	g := bu.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recursiveBisect(g, 16, 0.03, rng.New(uint64(i)+1))
	}
}
