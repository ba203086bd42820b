package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// Tests of the graph package that use the fixtures in internal/testutil,
// which imports this package and so cannot be imported from its own tests.

func TestStandardGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		n    int32
		m    int64
	}{
		{"path10", graph.Path(10), 10, 9},
		{"cycle10", graph.Cycle(10), 10, 10},
		{"complete6", testutil.Complete(6), 6, 15},
		{"star7", testutil.Star(7), 7, 6},
		{"grid4x5", graph.Grid2D(4, 5), 20, 31},
	}
	for _, c := range cases {
		if c.g.NumNodes() != c.n || c.g.NumEdges() != c.m {
			t.Errorf("%s: n=%d m=%d, want n=%d m=%d",
				c.name, c.g.NumNodes(), c.g.NumEdges(), c.n, c.m)
		}
		if err := c.g.Validate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	g := b.Build()
	comp, cnt := graph.ConnectedComponents(g)
	if cnt != 3 {
		t.Fatalf("components = %d, want 3", cnt)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Fatal("nodes 0,1,2 should share a component")
	}
	if comp[3] != comp[4] || comp[3] == comp[0] || comp[5] == comp[0] || comp[5] == comp[3] {
		t.Fatal("component labels wrong")
	}
	if !testutil.IsConnected(graph.Cycle(4)) || testutil.IsConnected(g) {
		t.Fatal("IsConnected wrong")
	}
}

func TestWeightedDegree(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdgeW(0, 1, 4)
	b.AddEdgeW(0, 2, 6)
	g := b.Build()
	if testutil.WeightedDegree(g, 0) != 10 {
		t.Fatalf("WeightedDegree = %d", testutil.WeightedDegree(g, 0))
	}
}
