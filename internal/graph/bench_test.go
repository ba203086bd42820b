package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func benchGraph(n int32, m int) *graph.Graph {
	r := rng.New(42)
	b := graph.NewBuilder(n)
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
		bu := graph.NewBuilder(n)
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
		graph.ConnectedComponents(g)
	}
}

// BenchmarkInducedSubgraph splits a graph of the shape rmat-tcp hands the
// initial partitioner (55K nodes, 12.5K edges: mostly isolated nodes) into
// its two halves, as one level of kaffpa's recursive bisection does.
func BenchmarkInducedSubgraph(b *testing.B) {
	g := benchGraph(55000, 12500)
	var half [2][]graph.NodeID
	for v := int32(0); v < g.NumNodes(); v++ {
		half[v%2] = append(half[v%2], v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.InducedSubgraph(g, half[0])
		graph.InducedSubgraph(g, half[1])
	}
}

// webInput is the graph of the svc-live benchmark workload, web n = 65536,
// the size of a graph a client uploads to parhipd.
func webInput(b *testing.B) *graph.Graph {
	g, err := gen.ByFamily(gen.FamilyWeb, 65536, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkReadMetis parses the METIS text of webInput; with SetBytes the
// result line reads in MB/s of text.
func BenchmarkReadMetis(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteMetis(&buf, webInput(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadMetis(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteMetis writes webInput as METIS text, in MB/s of text.
func BenchmarkWriteMetis(b *testing.B) {
	g := webInput(b)
	var buf bytes.Buffer
	if err := graph.WriteMetis(&buf, g); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := graph.WriteMetis(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadBinary reads webInput in the binary format, validation
// included, in MB/s of file.
func BenchmarkReadBinary(b *testing.B) {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, webInput(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
