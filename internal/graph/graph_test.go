package graph

import (
	"bytes"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(1))
	}
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeW(0, 1, 2)
	b.AddEdgeW(1, 0, 3) // reverse direction merges too
	b.AddEdgeW(0, 1, 1)
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 6 {
		t.Fatalf("edge weight = %d, want 6", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuilderUnitWeights: unit-weight edges build a graph without stored
// weights, and the first merged duplicate or non-unit weight gives exactly
// the CSR and weights of a builder that always stores them: a count per
// edge, sorted rows. The duplicates land in every row position, so the
// rows before the first merge, the merging row and the compacted rows
// after it are all checked.
func TestBuilderUnitWeights(t *testing.T) {
	b := NewBuilder(5)
	for _, e := range [][2]NodeID{{0, 1}, {0, 2}, {3, 4}, {4, 3}, {2, 3}, {1, 2}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if !slices.Equal(g.XAdj, []int64{0, 2, 4, 7, 9, 10}) || !slices.Equal(g.Adj, []NodeID{1, 2, 0, 2, 0, 1, 3, 2, 4, 3}) ||
		!slices.Equal(g.AdjW, []int64{1, 1, 1, 1, 1, 1, 1, 1, 2, 2}) {
		t.Fatalf("one duplicate: got %v %v %v", g.XAdj, g.Adj, g.AdjW)
	}

	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Int31n(40)
		count := map[[2]NodeID]int64{}
		b := NewBuilder(n)
		nonUnit := trial%4 == 0
		for i := r.Intn(120); n > 1 && i > 0; i-- {
			u, v := r.Int31n(n), r.Int31n(n)
			if u == v {
				continue
			}
			if _, dup := count[[2]NodeID{u, v}]; dup && trial%2 == 0 {
				continue // half the trials have no duplicates
			}
			w := int64(1)
			if nonUnit && i == 1 {
				w = 3
			}
			b.AddEdgeW(u, v, w)
			count[[2]NodeID{u, v}] += w
			count[[2]NodeID{v, u}] += w
		}
		g := b.Build()
		xadj, adj, adjw, unit := []int64{0}, []NodeID{}, []int64{}, true
		for v := NodeID(0); v < n; v++ {
			for u := NodeID(0); u < n; u++ {
				if w := count[[2]NodeID{v, u}]; w > 0 {
					adj, adjw, unit = append(adj, u), append(adjw, w), unit && w == 1
				}
			}
			xadj = append(xadj, int64(len(adj)))
		}
		if unit {
			adjw = nil
		}
		if !slices.Equal(g.XAdj, xadj) || !slices.Equal(g.Adj, adj) || (g.AdjW == nil) != unit || !slices.Equal(g.AdjW, adjw) {
			t.Fatalf("trial %d: got %v %v %v, want %v %v %v", trial, g.XAdj, g.Adj, g.AdjW, xadj, adj, adjw)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBuilderRejectsSelfLoops(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AddEdge(0, 0) did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "self-loop") {
			t.Fatalf("panic message %v does not name the self-loop", r)
		}
	}()
	b := NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 0)
}

// TestBuilderWeightedRoundTrip drives weighted edges and node weights
// through Build and both I/O formats and checks they come back intact.
func TestBuilderWeightedRoundTrip(t *testing.T) {
	b := NewBuilder(4)
	b.SetNodeWeight(0, 7)
	b.SetNodeWeight(3, 2)
	b.AddEdgeW(0, 1, 5)
	b.AddEdgeW(1, 0, 3) // duplicate in the opposite direction: weights merge
	b.AddEdgeW(1, 2, 4)
	b.AddEdgeW(2, 3, 1)
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if w, ok := g.HasEdge(0, 1); !ok || w != 8 {
		t.Fatalf("merged edge weight = %d, want 8", w)
	}
	if w, ok := g.HasEdge(1, 0); !ok || w != 8 {
		t.Fatalf("reverse edge weight = %d, want 8", w)
	}
	if g.NW[0] != 7 || g.NW[1] != 1 || g.NW[3] != 2 {
		t.Fatalf("node weights: %v", g.NW)
	}

	var metis bytes.Buffer
	if err := WriteMetis(&metis, g); err != nil {
		t.Fatal(err)
	}
	gm, err := ReadMetis(&metis)
	if err != nil {
		t.Fatal(err)
	}
	var binary bytes.Buffer
	if err := WriteBinary(&binary, g); err != nil {
		t.Fatal(err)
	}
	gb, err := ReadBinary(&binary)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Graph{"metis": gm, "binary": gb} {
		if got.Fingerprint() != g.Fingerprint() {
			t.Errorf("%s round trip changed the graph: %v vs %v", name, got, g)
		}
	}
}

func TestBuilderNodeWeights(t *testing.T) {
	b := NewBuilder(3)
	b.SetNodeWeight(1, 42)
	g := b.Build()
	if g.NW[0] != 1 || g.NW[1] != 42 {
		t.Fatalf("node weights: %v", g.NW)
	}
	if g.TotalNodeWeight() != 44 {
		t.Fatalf("total node weight = %d", g.TotalNodeWeight())
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(0, 4)
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(0, 1)
	g := b.Build()
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{
		XAdj: []int64{0, 1, 1},
		Adj:  []NodeID{1},
		AdjW: []int64{1},
		NW:   []int64{1, 1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted asymmetric graph")
	}
}

func TestValidateCatchesSelfLoop(t *testing.T) {
	g := &Graph{
		XAdj: []int64{0, 1},
		Adj:  []NodeID{0},
		AdjW: []int64{1},
		NW:   []int64{1},
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted self-loop")
	}
}

func TestValidateCatchesBadWeight(t *testing.T) {
	g := Path(3)
	g.NW[1] = 0
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted zero node weight")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, back := InducedSubgraph(g, []NodeID{0, 1, 2, 3})
	if sub.NumNodes() != 4 || sub.NumEdges() != 3 {
		t.Fatalf("subgraph %v", sub)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if back[0] != 0 || back[3] != 3 {
		t.Fatalf("back map wrong: %v", back)
	}
}

// inducedByBuilder is the reference InducedSubgraph: map IDs through a Go
// map and let Builder canonicalize the rows.
func inducedByBuilder(g *Graph, nodes []NodeID) *Graph {
	newID := make(map[NodeID]NodeID, len(nodes))
	for i, v := range nodes {
		newID[v] = int32(i)
	}
	b := NewBuilder(int32(len(nodes)))
	for i, v := range nodes {
		b.SetNodeWeight(int32(i), g.NW[v])
		for j, u := range g.Neighbors(v) {
			if lu, ok := newID[u]; ok && v < u {
				b.AddEdgeW(int32(i), lu, g.EdgeWeights(v)[j])
			}
		}
	}
	return b.Build()
}

func TestInducedSubgraphMatchesBuilder(t *testing.T) {
	r := rng.New(3)
	for seed := uint64(1); seed <= 20; seed++ {
		g := randomGraph(300, 2400, seed)
		for v := range g.NW {
			g.NW[v] = r.Int64n(7) + 1
		}
		var nodes []NodeID
		for v := int32(0); v < g.NumNodes(); v++ {
			if r.Intn(3) > 0 {
				nodes = append(nodes, v)
			}
		}
		for _, order := range []string{"ascending", "shuffled"} {
			if order == "shuffled" {
				r.Shuffle(len(nodes), func(i, j int) { nodes[i], nodes[j] = nodes[j], nodes[i] })
			}
			sub, back := InducedSubgraph(g, nodes)
			want := inducedByBuilder(g, nodes)
			if err := sub.Validate(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, order, err)
			}
			if !slices.Equal(back, nodes) || !slices.Equal(sub.NW, want.NW) || !slices.Equal(sub.XAdj, want.XAdj) ||
				!slices.Equal(sub.Adj, want.Adj) || !slices.Equal(sub.AdjW, want.AdjW) {
				t.Fatalf("seed %d %s: induced subgraph differs from the Builder reference", seed, order)
			}
		}
	}
}

func randomGraph(n int32, m int, seed uint64) *Graph {
	r := rng.New(seed)
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		u := r.Int31n(n)
		v := r.Int31n(n)
		if u != v {
			b.AddEdgeW(u, v, r.Int64n(5)+1)
		}
	}
	return b.Build()
}

func TestRandomGraphsValidate(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomGraph(50, 200, seed)
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHandshakeLemma(t *testing.T) {
	// Sum of degrees equals twice the number of edges, for any built graph.
	f := func(seed uint64) bool {
		g := randomGraph(40, 150, seed)
		var sum int64
		for v := int32(0); v < g.NumNodes(); v++ {
			sum += int64(g.Degree(v))
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTotalEdgeWeightMatchesHasEdge(t *testing.T) {
	g := randomGraph(30, 100, 5)
	var total int64
	for u := int32(0); u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if w, ok := g.HasEdge(u, v); ok {
				total += w
			}
		}
	}
	if total != g.TotalEdgeWeight() {
		t.Fatalf("TotalEdgeWeight = %d, pairwise sum = %d", g.TotalEdgeWeight(), total)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != 0 {
		t.Fatal("empty graph max degree wrong")
	}
}

// TestUnitWeightsConcurrent: goroutines that grow the shared ones at the
// same time each get n ones, capped at n, and never see a write.
func TestUnitWeightsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := g; n < 5000; n += 97 {
				ws := UnitWeights(n)
				if len(ws) != n || cap(ws) != n || slices.ContainsFunc(ws, func(w int64) bool { return w != 1 }) {
					t.Errorf("UnitWeights(%d): len %d cap %d, not all ones", n, len(ws), cap(ws))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
