package kaffpa

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// BenchmarkRecursiveBisect runs the initial partitioner's recursive
// bisection on an isolated-heavy stress case — 55K nodes, 12.5K edges,
// mostly isolated nodes — where splitting the graph into induced subgraphs,
// not growing the bisections, is most of the work. Both the distributed
// coarsening and kaffpa's own pack isolated nodes, so a partitioning run no
// longer hands recursive bisection this shape; it stays as a stress case.
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

// BenchmarkFMRefine runs k-way FM on the shape the web-* workloads hand the
// initial partitioner: a coarsest graph of ~700 heavy nodes with an average
// degree around 130 and weighted edges, k=16, started from the planted
// blocks with one node in six misplaced.
func BenchmarkFMRefine(b *testing.B) {
	const n, k, deg = 700, 16, 130
	r := rng.New(7)
	bu := graph.NewBuilder(n)
	start := make([]int32, n)
	for v := int32(0); v < n; v++ {
		bu.SetNodeWeight(v, 100+r.Int64n(100))
		start[v] = v * k / n
		if r.Intn(6) == 0 {
			start[v] = r.Int31n(k)
		}
	}
	for v := int32(0); v < n; v++ {
		for i := 0; i < 3*deg/4; i++ {
			u := r.Int31n(n)
			if r.Intn(4) > 0 { // three draws in four stay in or next to v's block
				u = (v + r.Int31n(3*n/k) - 3*n/k/2 + n) % n
			}
			if u != v {
				bu.AddEdgeW(v, u, 1+r.Int64n(20))
			}
		}
	}
	g := bu.Build()
	lmax := g.TotalNodeWeight()/k + g.TotalNodeWeight()/k/33
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmRefine(g, slices.Clone(start), k, lmax, 4, uint64(i)+1)
	}
}
