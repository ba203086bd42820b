package contract

import (
	"testing"
	"testing/quick"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sclp"
)

// contractOneRank runs ParContract over g and labels (node IDs of cluster
// representatives) on a one-rank world, the contraction kaffpa runs, and
// returns the coarse graph and each node's coarse ID. One rank has no
// ghosts, so both are indexed by g's node IDs.
func contractOneRank(g *graph.Graph, labels []int64) (*graph.Graph, []int64) {
	var coarse *graph.Graph
	var fineToCoarse []int64
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		res := ParContract(dgraph.FromGraph(c, g), labels)
		coarse, fineToCoarse = res.Coarse.Gather(), res.FineToCoarse
	})
	return coarse, fineToCoarse
}

// clusterOneRank is kaffpa's clustering of g: ParCluster on a one-rank
// world with one phase per round.
func clusterOneRank(g *graph.Graph, u int64, seed uint64) []int64 {
	var labels []int64
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		labels = sclp.ParCluster(dgraph.FromGraph(c, g), sclp.ParClusterConfig{U: u, Iterations: 3, PhasesPerRound: 1, Seed: seed})
	})
	return labels
}

func TestContractPath(t *testing.T) {
	g := graph.Path(6)
	labels := []int64{0, 0, 0, 3, 3, 3}
	cg, f2c := contractOneRank(g, labels)
	if cg.NumNodes() != 2 || cg.NumEdges() != 1 {
		t.Fatalf("coarse %v", cg)
	}
	if cg.NW[0] != 3 || cg.NW[1] != 3 {
		t.Fatalf("coarse weights %v", cg.NW)
	}
	if w, _ := cg.HasEdge(0, 1); w != 1 {
		t.Fatalf("coarse edge weight %d", w)
	}
	if f2c[0] != f2c[2] || f2c[0] == f2c[3] {
		t.Fatalf("fine-to-coarse %v", f2c)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestContractParallelEdgesSum(t *testing.T) {
	// 4-cycle contracted into two pairs: the two cut edges between the
	// pairs merge into one coarse edge of weight 2.
	g := graph.Cycle(4)
	labels := []int64{1, 1, 3, 3}
	cg, _ := contractOneRank(g, labels)
	if cg.NumNodes() != 2 || cg.NumEdges() != 1 {
		t.Fatalf("coarse %v", cg)
	}
	if w, _ := cg.HasEdge(0, 1); w != 2 {
		t.Fatalf("merged edge weight %d, want 2", w)
	}
}

func TestContractSingletons(t *testing.T) {
	g := gen.RGG(100, 1)
	labels := make([]int64, 100)
	for v := range labels {
		labels[v] = int64(v)
	}
	cg, f2c := contractOneRank(g, labels)
	if cg.NumNodes() != 100 || cg.NumEdges() != g.NumEdges() {
		t.Fatalf("identity contraction changed the graph: %v vs %v", cg, g)
	}
	for v, c := range f2c {
		if int64(v) != c {
			t.Fatal("identity contraction should keep IDs")
		}
	}
}

func TestContractAllOneCluster(t *testing.T) {
	g := gen.RGG(50, 2)
	labels := make([]int64, 50)
	cg, _ := contractOneRank(g, labels)
	if cg.NumNodes() != 1 || cg.NumEdges() != 0 {
		t.Fatalf("coarse %v", cg)
	}
	if cg.NW[0] != g.TotalNodeWeight() {
		t.Fatalf("weight %d", cg.NW[0])
	}
}

// The central invariant from §III: a partition of the coarse graph
// corresponds to a partition of the fine graph with the same cut and
// balance.
func TestContractPreservesCutAndBalance(t *testing.T) {
	f := func(seed uint64) bool {
		g, _ := gen.PlantedPartition(500, 10, 8, 0.5, seed)
		cg, f2c := contractOneRank(g, clusterOneRank(g, 40, seed))
		if cg.Validate() != nil {
			return false
		}
		// Total node weight is preserved.
		if cg.TotalNodeWeight() != g.TotalNodeWeight() {
			return false
		}
		// Random coarse partition projects to a fine partition with the
		// same cut and block weights.
		r := rng.New(seed)
		k := int32(3)
		cp := make([]int32, cg.NumNodes())
		for v := range cp {
			cp[v] = r.Int31n(k)
		}
		fp := make([]int32, g.NumNodes())
		for v, c := range f2c {
			fp[v] = cp[c]
		}
		coarseCut := partition.EdgeCut(cg, partition.Partition(cp))
		fineCut := partition.EdgeCut(g, partition.Partition(fp))
		if coarseCut != fineCut {
			return false
		}
		cbw := partition.BlockWeights(cg, partition.Partition(cp), k)
		fbw := partition.BlockWeights(g, partition.Partition(fp), k)
		for i := range cbw {
			if cbw[i] != fbw[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestContractEdgeWeightConservation(t *testing.T) {
	// Total coarse edge weight + internal (contracted) weight = total fine
	// edge weight.
	g := gen.RGG(400, 5)
	cg, f2c := contractOneRank(g, clusterOneRank(g, 30, 5))
	var internal int64
	for v := int32(0); v < g.NumNodes(); v++ {
		ws := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			if u > v && f2c[u] == f2c[v] {
				internal += ws[i]
			}
		}
	}
	if cg.TotalEdgeWeight()+internal != g.TotalEdgeWeight() {
		t.Fatalf("edge weight not conserved: coarse %d + internal %d != fine %d",
			cg.TotalEdgeWeight(), internal, g.TotalEdgeWeight())
	}
}

// TestProject: on one rank ParProject gives every fine node its coarse
// representative's block.
func TestProject(t *testing.T) {
	g := graph.Path(5)
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		fine := dgraph.FromGraph(c, g)
		res := ParContract(fine, []int64{0, 0, 2, 2, 4})
		fp := ParProject(fine, res.Coarse, res.FineToCoarse, []int64{5, 6, 7})
		want := []int64{5, 5, 6, 6, 7}
		for i := range want {
			if fp[i] != want[i] {
				t.Errorf("projected %v, want %v", fp, want)
				return
			}
		}
	})
}
