package contract

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/rng"
)

// sparseWeightedGraph returns a random graph with weighted nodes and edges
// in which only 11 of every 20 node IDs carry edges: the rest are isolated,
// as more than 40 % of an rmat graph's nodes are, and every rank owns both
// kinds.
func sparseWeightedGraph(n int32, avgDeg int, seed uint64) *graph.Graph {
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for v := int32(0); v < n; v++ {
		b.SetNodeWeight(v, r.Int64n(5)+1)
	}
	for i := 0; i < int(n)*avgDeg/2; i++ {
		u, v := r.Int31n(n), r.Int31n(n)
		if u != v && u%20 < 11 && v%20 < 11 {
			b.AddEdgeW(u, v, r.Int64n(9)+1)
		}
	}
	return b.Build()
}

// sortedLabelContract is the oracle: the sequential Contract of g with its
// coarse IDs renumbered in ascending label order, which is the numbering
// ParContract produces.
func sortedLabelContract(g *graph.Graph, labels []int32) *graph.Graph {
	seq, fineToCoarse := Contract(g, labels)
	labelOf := make([]int32, seq.NumNodes())
	for v, c := range fineToCoarse {
		labelOf[c] = labels[v]
	}
	byLabel := make([]int32, seq.NumNodes())
	for c := range byLabel {
		byLabel[c] = int32(c)
	}
	slices.SortFunc(byLabel, func(a, b int32) int { return int(labelOf[a] - labelOf[b]) })
	newID := make([]int32, seq.NumNodes())
	for id, c := range byLabel {
		newID[c] = int32(id)
	}
	b := graph.NewBuilder(seq.NumNodes())
	for c := int32(0); c < seq.NumNodes(); c++ {
		b.SetNodeWeight(newID[c], seq.NW[c])
		ws := seq.EdgeWeights(c)
		for i, u := range seq.Neighbors(c) {
			if c < u {
				b.AddEdgeW(newID[c], newID[u], ws[i])
			}
		}
	}
	return b.Build()
}

func sameGraph(a, b *graph.Graph) error {
	if a.NumNodes() != b.NumNodes() || len(a.Adj) != len(b.Adj) {
		return fmt.Errorf("%v vs %v", a, b)
	}
	for v := int32(0); v < a.NumNodes(); v++ {
		if a.NW[v] != b.NW[v] {
			return fmt.Errorf("node %d: weight %d vs %d", v, a.NW[v], b.NW[v])
		}
		if !slices.Equal(a.Neighbors(v), b.Neighbors(v)) || !slices.Equal(a.EdgeWeights(v), b.EdgeWeights(v)) {
			return fmt.Errorf("node %d: row %v/%v vs %v/%v", v,
				a.Neighbors(v), a.EdgeWeights(v), b.Neighbors(v), b.EdgeWeights(v))
		}
	}
	return nil
}

// TestParContractMatchesSequentialOnRandomLabels is the assembly oracle: for
// arbitrary labels — clusters that span ranks, the all-singleton and the
// one-cluster extremes — on a weighted graph that is mostly isolated nodes,
// the gathered coarse graph equals the sequential contraction node for node
// and arc for arc, for any rank count P. W is the number of contractions run
// back to back in one arena, reset after each as the V-cycle resets it from
// level to level: recycled scratch must give the same graph every time.
// The "few" case puts a few hundred clusters on a dense graph, so every
// sender contributes hundreds of arcs to each received row and the rows take
// the canonicalizer's radix path, not its insertion sort.
func TestParContractMatchesSequentialOnRandomLabels(t *testing.T) {
	const n, nDense = 6000, 2000
	sparse, dense := sparseWeightedGraph(n, 24, 5), sparseWeightedGraph(nDense, 200, 6)
	r := rng.New(9)
	random, singletons, one, few := make([]int32, n), make([]int32, n), make([]int32, n), make([]int32, nDense)
	for v := int32(0); v < n; v++ {
		random[v] = r.Int31n(n/4) * 4 // ~1500 clusters, members anywhere
		singletons[v] = v
		one[v] = n / 2
	}
	for v := range few {
		few[v] = r.Int31n(nDense/8) * 8 // ~250 clusters, members anywhere
	}
	for _, lab := range []struct {
		name   string
		g      *graph.Graph
		labels []int32
		ranks  []int
	}{
		{"random", sparse, random, []int{1, 2, 3, 4}},
		{"singletons", sparse, singletons, []int{1, 2, 3, 4}},
		{"one", sparse, one, []int{1, 2, 3, 4}},
		{"few", dense, few, []int{1, 2, 3}},
	} {
		name, g, labels32, n := lab.name, lab.g, lab.labels, lab.g.NumNodes()
		want := sortedLabelContract(g, labels32)
		if name == "few" && want.MaxDegree() < 200 {
			t.Fatalf("few: longest coarse row has %d arcs, want hundreds", want.MaxDegree())
		}
		distinct := slices.Clone(labels32)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		coarseID := make(map[int32]int64, len(distinct))
		for id, l := range distinct {
			coarseID[l] = int64(id)
		}
		var intra int64
		for v := int32(0); v < n; v++ {
			ws := g.EdgeWeights(v)
			for i, u := range g.Neighbors(v) {
				if v < u && labels32[v] == labels32[u] {
					intra += ws[i]
				}
			}
		}
		for _, P := range lab.ranks {
			for _, W := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/P=%d/W=%d", name, P, W), func(t *testing.T) {
					var gots []*graph.Graph
					mpi.NewWorld(P).Run(func(c *mpi.Comm) {
						d := dgraph.FromGraph(c, g)
						labels := make([]int64, d.NTotal())
						for v := int32(0); v < d.NTotal(); v++ {
							labels[v] = int64(labels32[d.ToGlobal(v)])
						}
						ar := arena.New()
						for run := 0; run < W; run++ {
							res := ParContractWith(d, labels, ContractOptions{Arena: ar})
							if err := res.Coarse.Validate(); err != nil {
								t.Errorf("rank %d run %d: %v", c.Rank(), run, err)
							}
							for v := int32(0); v < d.NLocal(); v++ {
								if want := coarseID[labels32[d.ToGlobal(v)]]; res.FineToCoarse[v] != want {
									t.Errorf("rank %d run %d: FineToCoarse[%d] = %d, want %d", c.Rank(), run, v, res.FineToCoarse[v], want)
									break
								}
							}
							if gathered := res.Coarse.Gather(); c.Rank() == 0 {
								gots = append(gots, gathered)
							}
							ar.Reset()
						}
					})
					if len(gots) != W {
						t.Fatalf("%d coarse graphs gathered, want %d", len(gots), W)
					}
					for run, got := range gots {
						if err := sameGraph(got, want); err != nil {
							t.Fatalf("run %d: %v", run, err)
						}
						if got.TotalNodeWeight() != g.TotalNodeWeight() {
							t.Errorf("run %d: node weight %d, fine graph has %d", run, got.TotalNodeWeight(), g.TotalNodeWeight())
						}
						if got.TotalEdgeWeight() != g.TotalEdgeWeight()-intra {
							t.Errorf("run %d: edge weight %d, want %d - %d intra-cluster", run, got.TotalEdgeWeight(), g.TotalEdgeWeight(), intra)
						}
					}
				})
			}
		}
	}
}

func TestWalkQuotientRecordsRejectsMalformed(t *testing.T) {
	good := []int64{10, 7, 2, 11, 1, 12, 5, 13, 1, 0}
	var rows []int64
	if err := walkQuotientRecords(3, good, 10, 14, func(rec []int64) { rows = append(rows, rec[0], int64(len(rec))) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rows, []int64{10, 7, 13, 3}) {
		t.Fatalf("walked %v", rows)
	}
	for _, tc := range []struct {
		name string
		buf  []int64
		want string
	}{
		{"truncated header", append(slices.Clone(good), 11, 4), "word 10: header truncated"},
		{"count overruns", []int64{10, 7, 0, 11, 1, 2, 12, 5}, "word 3: 2 arcs do not fit the 2 words left"},
		{"negative count", []int64{10, 7, -1, 11, 1}, "word 0: -1 arcs"},
		{"cu out of range", []int64{10, 7, 0, 14, 1, 0}, "word 3: coarse node 14 outside [10,14)"},
	} {
		err := walkQuotientRecords(3, tc.buf, 10, 14, func([]int64) {})
		if err == nil || !strings.Contains(err.Error(), "from rank 3") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want rank 3 and %q", tc.name, err, tc.want)
		}
	}
}
