package sclp

import (
	"testing"
	"testing/quick"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
)

// clusterOneRank runs ParCluster over g on a one-rank world with one phase
// per round, the clustering kaffpa runs. One rank has no ghosts, so the
// returned labels are node IDs of g.
func clusterOneRank(g *graph.Graph, cfg ParClusterConfig) []int32 {
	cfg.PhasesPerRound = 1
	var labels []int64
	mpi.NewWorld(1).Run(func(c *mpi.Comm) { labels = ParCluster(dgraph.FromGraph(c, g), cfg) })
	return narrow32(labels)
}

// refineOneRank runs ParRefine over g and p on a one-rank world with one
// phase per round, the refinement kaffpa runs, writes the result into p and
// returns the number of moves.
func refineOneRank(g *graph.Graph, p []int32, cfg ParRefineConfig) int64 {
	cfg.PhasesPerRound = 1
	part := make([]int64, len(p))
	for v, b := range p {
		part[v] = int64(b)
	}
	var moves int64
	mpi.NewWorld(1).Run(func(c *mpi.Comm) { moves = ParRefine(dgraph.FromGraph(c, g), part, cfg) })
	copy(p, narrow32(part))
	return moves
}

// clusterWeights returns the total node weight per label.
func clusterWeights(g *graph.Graph, labels []int32) map[int32]int64 {
	w := make(map[int32]int64)
	for v := int32(0); v < g.NumNodes(); v++ {
		w[labels[v]] += g.NW[v]
	}
	return w
}

func TestClusterTwoCliques(t *testing.T) {
	// Two 5-cliques joined by one edge: LP should find the cliques.
	b := graph.NewBuilder(10)
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+5, v+5)
		}
	}
	b.AddEdge(4, 5)
	g := b.Build()
	labels := clusterOneRank(g, ParClusterConfig{U: 5, Iterations: 10, Seed: 1})
	for v := int32(1); v < 5; v++ {
		if labels[v] != labels[0] {
			t.Fatalf("clique 1 split: %v", labels)
		}
	}
	for v := int32(6); v < 10; v++ {
		if labels[v] != labels[5] {
			t.Fatalf("clique 2 split: %v", labels)
		}
	}
	if labels[0] == labels[5] {
		t.Fatalf("cliques merged despite U=5: %v", labels)
	}
}

func TestClusterRespectsSizeConstraint(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.RGG(300, seed)
		const U = 20
		labels := clusterOneRank(g, ParClusterConfig{U: U, Iterations: 5, Seed: seed})
		for _, w := range clusterWeights(g, labels) {
			if w > U {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestClusterUnitBound(t *testing.T) {
	// U=1 on a unit-weight graph: the only feasible clustering is singletons
	// (paper §II-A).
	g := gen.RGG(100, 2)
	labels := clusterOneRank(g, ParClusterConfig{U: 1, Iterations: 5, Seed: 3})
	for v := int32(0); v < g.NumNodes(); v++ {
		if labels[v] != v {
			t.Fatalf("node %d moved under U=1", v)
		}
	}
}

func TestClusterShrinksCommunityGraph(t *testing.T) {
	g, _ := gen.PlantedPartition(2000, 20, 10, 0.2, 7)
	labels := clusterOneRank(g, ParClusterConfig{U: 200, Iterations: 3, DegreeOrder: true, Seed: 1})
	distinct := make(map[int32]bool)
	for _, l := range labels {
		distinct[l] = true
	}
	// Cluster contraction is aggressive on community graphs: expect far
	// fewer clusters than nodes (paper: "orders of magnitude").
	if len(distinct) > 400 {
		t.Fatalf("%d clusters from 2000 nodes; clustering ineffective", len(distinct))
	}
}

func TestClusterConstraintRespected(t *testing.T) {
	g := gen.RGG(200, 4)
	constraint := make([]int64, 200)
	for v := range constraint {
		constraint[v] = int64(v % 2)
	}
	labels := clusterOneRank(g, ParClusterConfig{U: 50, Iterations: 5, Constraint: constraint, Seed: 5})
	// Every cluster must be a subset of one constraint block.
	repBlock := make(map[int32]int64)
	for v := int32(0); v < 200; v++ {
		if b, ok := repBlock[labels[v]]; ok {
			if b != constraint[v] {
				t.Fatalf("cluster %d spans constraint blocks", labels[v])
			}
		} else {
			repBlock[labels[v]] = constraint[v]
		}
	}
}

func TestClusterDeterminism(t *testing.T) {
	g := gen.RGG(300, 9)
	a := clusterOneRank(g, ParClusterConfig{U: 30, Iterations: 4, Seed: 42})
	b := clusterOneRank(g, ParClusterConfig{U: 30, Iterations: 4, Seed: 42})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

func TestClusterZeroIterations(t *testing.T) {
	g := graph.Path(5)
	labels := clusterOneRank(g, ParClusterConfig{U: 10, Iterations: 0, Seed: 1})
	for v := int32(0); v < 5; v++ {
		if labels[v] != v {
			t.Fatal("zero iterations should leave singletons")
		}
	}
}

// TestClusterIsolatedNodes: label propagation cannot move a node without
// neighbours, the packing after the last round can. With U=1 no two nodes
// fit together, so the isolated nodes keep their own labels; with U=4 they
// share the first one's.
func TestClusterIsolatedNodes(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	g := b.Build() // nodes 2, 3 isolated
	if labels := clusterOneRank(g, ParClusterConfig{U: 1, Iterations: 3, Seed: 1}); labels[2] != 2 || labels[3] != 3 {
		t.Fatalf("U=1: isolated nodes must keep their own cluster, got labels %v", labels)
	}
	if labels := clusterOneRank(g, ParClusterConfig{U: 4, Iterations: 3, Seed: 1}); labels[2] != 2 || labels[3] != 2 {
		t.Fatalf("U=4: isolated nodes 2 and 3 must share label 2, got labels %v", labels)
	}
}

func TestRefineImprovesCut(t *testing.T) {
	g := gen.DelaunayLike(1024, 3)
	n := g.NumNodes()
	k := int32(2)
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	// Start from a poor but balanced partition: odd/even node IDs.
	p := make([]int32, n)
	for v := int32(0); v < n; v++ {
		p[v] = v % 2
	}
	before := partition.EdgeCut(g, partition.Partition(p))
	moves := refineOneRank(g, p, ParRefineConfig{K: k, Lmax: lmax, Iterations: 6, Seed: 1})
	after := partition.EdgeCut(g, partition.Partition(p))
	if moves == 0 {
		t.Fatal("refinement made no moves on an odd/even partition")
	}
	if after >= before {
		t.Fatalf("cut did not improve: %d -> %d", before, after)
	}
	if !partition.IsFeasible(g, partition.Partition(p), k, 0.03) {
		t.Fatal("refinement broke feasibility")
	}
}

func TestRefineNeverWorsensFromGoodStart(t *testing.T) {
	// From a contiguous (good) partition, refinement must not increase the
	// cut: non-overloaded nodes only take moves with >= connection.
	f := func(seed uint64) bool {
		g := gen.DelaunayLike(400, seed)
		n := g.NumNodes()
		k := int32(2)
		p := make([]int32, n)
		for v := int32(0); v < n; v++ {
			if v >= n/2 {
				p[v] = 1
			}
		}
		before := partition.EdgeCut(g, partition.Partition(p))
		lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
		refineOneRank(g, p, ParRefineConfig{K: k, Lmax: lmax, Iterations: 4, Seed: seed})
		after := partition.EdgeCut(g, partition.Partition(p))
		return after <= before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineRepairsOverload(t *testing.T) {
	// All nodes in block 0 of 2: block 0 is overloaded, refinement must move
	// nodes out even at a cut cost.
	g := gen.RGG(500, 11)
	n := g.NumNodes()
	p := make([]int32, n)
	lmax := partition.Lmax(g.TotalNodeWeight(), 2, 0.03)
	refineOneRank(g, p, ParRefineConfig{K: 2, Lmax: lmax, Iterations: 20, Seed: 2})
	bw := partition.BlockWeights(g, partition.Partition(p), 2)
	if bw[0] > lmax {
		t.Fatalf("block 0 still overloaded: %v (lmax %d)", bw, lmax)
	}
}

func TestRefineRespectsLmax(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.RGG(300, seed)
		n := g.NumNodes()
		k := int32(4)
		r := rng.New(seed)
		p := make([]int32, n)
		for v := range p {
			p[v] = r.Int31n(k)
		}
		lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
		bwBefore := partition.BlockWeights(g, partition.Partition(p), k)
		maxBefore := int64(0)
		for _, w := range bwBefore {
			if w > maxBefore {
				maxBefore = w
			}
		}
		refineOneRank(g, p, ParRefineConfig{K: k, Lmax: lmax, Iterations: 6, Seed: seed})
		for _, w := range partition.BlockWeights(g, partition.Partition(p), k) {
			// Blocks within the bound stay within; pre-overloaded blocks
			// must not grow.
			if w > lmax && w > maxBefore {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
