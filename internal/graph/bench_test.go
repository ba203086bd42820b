package graph

import (
	"testing"

	"repro/internal/rng"
)

func benchGraph(n int32, m int) *Graph {
	r := rng.New(42)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := r.Int31n(n), r.Int31n(n)
		if u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

func BenchmarkBuilderBuild(b *testing.B) {
	r := rng.New(42)
	const n = 20000
	type edge struct{ u, v int32 }
	edges := make([]edge, 100000)
	for i := range edges {
		edges[i] = edge{r.Int31n(n), r.Int31n(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(n)
		for _, e := range edges {
			if e.u != e.v {
				bu.AddEdge(e.u, e.v)
			}
		}
		bu.Build()
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g := benchGraph(20000, 60000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConnectedComponents(g)
	}
}

// BenchmarkInducedSubgraph splits a graph of the shape rmat-tcp hands the
// initial partitioner (55K nodes, 12.5K edges: mostly isolated nodes) into
// its two halves, as one level of kaffpa's recursive bisection does.
func BenchmarkInducedSubgraph(b *testing.B) {
	g := benchGraph(55000, 12500)
	var half [2][]NodeID
	for v := int32(0); v < g.NumNodes(); v++ {
		half[v%2] = append(half[v%2], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		InducedSubgraph(g, half[0])
		InducedSubgraph(g, half[1])
	}
}
