package graph

import (
	"bytes"
	"errors"
	"fmt"
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

// validateOracle is Validate as it was with its quadratic symmetry check:
// for each arc, a scan of the neighbour's whole row for an equal-weight
// twin. Validate must accept and reject the same graphs with the same
// error.
func validateOracle(g *Graph) error {
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
				w := int64(1)
				if g.AdjW != nil {
					w = g.AdjW[i]
				}
				return fmt.Errorf("graph: edge (%d,%d,w=%d) has no symmetric twin", v, u, w)
			}
		}
	}
	return nil
}

// TestValidateMatchesOracle: on canonical graphs and on copies with rows
// out of order, duplicated, unmatched or deleted arcs and one-sided weight
// changes, Validate returns what validateOracle returns.
func TestValidateMatchesOracle(t *testing.T) {
	one := []int64{1, 1, 1, 1}
	for _, g := range []*Graph{
		// Node 1 lists 0, node 0 lists nothing: a twin missing below.
		FromCSR([]int64{0, 0, 1}, []NodeID{0}, nil, one[:2]),
		// Nodes 0 and 1 list 2, node 2 lists only 0; node 3's row, next
		// after it, starts with 1, where node 2's cursor runs on to.
		FromCSR([]int64{0, 1, 3, 4, 5}, []NodeID{2, 2, 3, 0, 1}, nil, one),
	} {
		if got, want := g.Validate(), validateOracle(g); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%v: Validate: %v; the quadratic check: %v", g.Adj, got, want)
		}
	}
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		g := randomGraph(int32(2+r.Int31n(30)), int(r.Int31n(120)), seed)
		if seed%3 == 0 {
			g = FromCSR(g.XAdj, g.Adj, nil, g.NW)
		}
		if len(g.Adj) == 0 {
			continue
		}
		adj, adjw := slices.Clone(g.Adj), slices.Clone(g.AdjW)
		i := r.Int31n(int32(len(adj)))
		xadj := g.XAdj
		switch seed % 7 {
		case 0: // one arc deleted: its twin is left unmatched
			xadj = slices.Clone(g.XAdj)
			adj = slices.Delete(adj, int(i), int(i)+1)
			if adjw != nil {
				adjw = slices.Delete(adjw, int(i), int(i)+1)
			}
			for v := range xadj {
				if xadj[v] > int64(i) {
					xadj[v]--
				}
			}
		case 1: // a row reversed: not ascending, still symmetric
			v := r.Int31n(g.NumNodes())
			slices.Reverse(adj[g.XAdj[v]:g.XAdj[v+1]])
			if adjw != nil {
				slices.Reverse(adjw[g.XAdj[v]:g.XAdj[v+1]])
			}
		case 2: // one arc's weight changed, its twin's not
			if adjw != nil {
				adjw[i]++
			}
		case 3: // one arc pointed elsewhere: a duplicate or a missing twin
			adj[i] = (adj[i] + 1) % g.NumNodes()
		case 4: // two arcs of a row swapped, weights left
			v := r.Int31n(g.NumNodes())
			if lo, hi := g.XAdj[v], g.XAdj[v+1]; hi-lo >= 2 {
				adj[lo], adj[hi-1] = adj[hi-1], adj[lo]
			}
		case 5: // one arc made a copy of its row's previous arc
			if i > 0 {
				adj[i] = adj[i-1]
				if adjw != nil {
					adjw[i] = adjw[i-1]
				}
			}
		}
		for _, h := range []*Graph{g, FromCSR(xadj, adj, adjw, g.NW)} {
			got, want := h.Validate(), validateOracle(h)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("seed %d: Validate: %v; the quadratic check: %v", seed, got, want)
			}
		}
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
// TestConstructorsReserveUnitRows: every way to build a graph without
// stored weights grows the shared ones to its longest row, which
// EdgeWeights slices unchecked. Each case starts from shorter ones and a
// star longer than they are, built as bare arrays that no constructor has
// seen. The package's tests do not run in parallel, so none sees the
// shorter ones; the longest are put back at the end.
func TestConstructorsReserveUnitRows(t *testing.T) {
	longest := ones.Load()
	defer ones.Store(longest)
	star := func(weights bool) *Graph {
		short := fillOnes(make([]int64, 1024))
		ones.Store(&short)
		leaves := len(short) + 1000
		g := &Graph{XAdj: []int64{0, int64(leaves)}, NW: []int64{1}}
		for v := 1; v <= leaves; v++ {
			g.Adj = append(g.Adj, NodeID(v))
			g.XAdj = append(g.XAdj, int64(leaves+v))
			g.NW = append(g.NW, 1)
		}
		g.Adj = append(g.Adj, make([]NodeID, leaves)...) // each leaf's arc to 0
		if weights {
			g.AdjW = fillOnes(make([]int64, len(g.Adj)))
		}
		return g
	}
	for name, build := range map[string]func() *Graph{
		"Build": func() *Graph {
			g := star(false)
			b := NewBuilder(g.NumNodes())
			for _, v := range g.Neighbors(0) {
				b.AddEdge(0, v)
			}
			return b.Build()
		},
		"FromCSR": func() *Graph {
			g := star(false)
			return FromCSR(g.XAdj, g.Adj, nil, g.NW)
		},
		"InducedSubgraph": func() *Graph {
			g := star(false)
			all := make([]NodeID, g.NumNodes())
			for v := range all {
				all[v] = NodeID(v)
			}
			sub, _ := InducedSubgraph(g, all)
			return sub
		},
		"ReadMetis": func() *Graph {
			var buf bytes.Buffer
			if err := WriteMetis(&buf, star(true)); err != nil {
				t.Fatal(err)
			}
			g, err := ReadMetis(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"ReadBinary": func() *Graph {
			var buf bytes.Buffer
			if err := WriteBinary(&buf, star(true)); err != nil {
				t.Fatal(err)
			}
			g, err := ReadBinary(&buf)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	} {
		g := build()
		if g.AdjW != nil {
			t.Fatalf("%s: a unit star stores weights", name)
		}
		if have, want := len(*ones.Load()), int(g.MaxDegree()); have < want {
			t.Fatalf("%s: %d shared ones for a row of %d", name, have, want)
		}
	}
}

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
