package contract

import (
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/sclp"
)

// parallelContractOf runs the parallel pipeline (cluster + contract) and
// gathers the coarse graph for inspection.
func parallelContractOf(t *testing.T, g *graph.Graph, P int, u int64, iters int, seed uint64) (coarse *graph.Graph) {
	t.Helper()
	var out *graph.Graph
	mpi.NewWorld(P).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := sclp.ParCluster(d, sclp.ParClusterConfig{U: u, Iterations: iters, DegreeOrder: true, Seed: seed})
		res := ParContract(d, labels)
		if err := res.Coarse.Validate(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		gathered := res.Coarse.Gather()
		if c.Rank() == 0 {
			out = gathered
		}
	})
	return out
}

func TestParContractPreservesTotals(t *testing.T) {
	g, _ := gen.PlantedPartition(1500, 15, 10, 0.4, 1)
	coarse := parallelContractOf(t, g, 4, 150, 3, 1)
	if coarse.TotalNodeWeight() != g.TotalNodeWeight() {
		t.Fatalf("node weight %d != %d", coarse.TotalNodeWeight(), g.TotalNodeWeight())
	}
	if coarse.NumNodes() >= g.NumNodes() {
		t.Fatalf("no shrink: %d -> %d", g.NumNodes(), coarse.NumNodes())
	}
	if err := coarse.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParContractCommunityShrink(t *testing.T) {
	// On a community graph one parallel contraction should shrink by a
	// large factor (the paper reports orders of magnitude on web graphs).
	g, _ := gen.PlantedPartition(4000, 40, 12, 0.3, 2)
	coarse := parallelContractOf(t, g, 4, 200, 3, 2)
	if coarse.NumNodes() > g.NumNodes()/5 {
		t.Fatalf("weak shrink: %d -> %d", g.NumNodes(), coarse.NumNodes())
	}
}

func TestParContractMatchesSequentialOnSameLabels(t *testing.T) {
	// With identical labels, parallel contraction must produce exactly the
	// sequential coarse graph (up to the deterministic ID order both use).
	g := gen.RGG(500, 3)
	n := g.NumNodes()
	labels32 := make([]int32, n)
	for v := int32(0); v < n; v++ {
		labels32[v] = v / 7 * 7 // cluster = floor(v/7)*7, a valid node ID
	}
	seqCoarse, _ := oracleContract(g, labels32)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			labels[v] = d.ToGlobal(v) / 7 * 7
		}
		res := ParContract(d, labels)
		got := res.Coarse.Gather()
		if c.Rank() != 0 {
			return
		}
		if got.NumNodes() != seqCoarse.NumNodes() || got.NumEdges() != seqCoarse.NumEdges() {
			t.Errorf("parallel %v vs sequential %v", got, seqCoarse)
			return
		}
		// The oracle assigns coarse IDs by first occurrence, and
		// parallel by sorted label: with labels = floor(v/7)*7 both yield
		// ascending order of cluster representative, so graphs match 1:1.
		for v := int32(0); v < got.NumNodes(); v++ {
			if got.NW[v] != seqCoarse.NW[v] {
				t.Errorf("node weight mismatch at %d: %d vs %d", v, got.NW[v], seqCoarse.NW[v])
				return
			}
			a, b := got.Neighbors(v), seqCoarse.Neighbors(v)
			if len(a) != len(b) {
				t.Errorf("degree mismatch at %d", v)
				return
			}
			for i := range a {
				if a[i] != b[i] || got.EdgeWeights(v)[i] != seqCoarse.EdgeWeights(v)[i] {
					t.Errorf("edge mismatch at %d", v)
					return
				}
			}
		}
	})
}

func TestParContractSingletonLabels(t *testing.T) {
	// Identity clustering: coarse graph == fine graph.
	g := gen.RGG(200, 5)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			labels[v] = d.ToGlobal(v)
		}
		res := ParContract(d, labels)
		if res.Coarse.GlobalN != int64(g.NumNodes()) || res.Coarse.GlobalM != g.NumEdges() {
			t.Errorf("identity contraction changed size: n=%d m=%d",
				res.Coarse.GlobalN, res.Coarse.GlobalM)
		}
	})
}

func TestParProjectRoundTrip(t *testing.T) {
	// Project a coarse partition down and verify cut and balance are
	// preserved (§III invariant, parallel edition).
	g, _ := gen.PlantedPartition(1200, 12, 9, 0.4, 7)
	const k = 3
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := sclp.ParCluster(d, sclp.ParClusterConfig{U: 100, Iterations: 3, Seed: 7})
		res := ParContract(d, labels)
		coarse := res.Coarse
		// Partition coarse nodes by global coarse ID parity.
		coarsePart := make([]int64, coarse.NTotal())
		for v := int32(0); v < coarse.NTotal(); v++ {
			coarsePart[v] = coarse.ToGlobal(v) % k
		}
		coarseCut := coarse.EdgeCut(coarsePart)
		coarseBW := coarse.BlockWeights(coarsePart, k)
		finePart := ParProject(d, coarse, res.FineToCoarse, coarsePart)
		fineCut := d.EdgeCut(finePart)
		fineBW := d.BlockWeights(finePart, k)
		if fineCut != coarseCut {
			t.Errorf("cut not preserved: coarse %d fine %d", coarseCut, fineCut)
		}
		for b := 0; b < k; b++ {
			if fineBW[b] != coarseBW[b] {
				t.Errorf("block %d weight: coarse %d fine %d", b, coarseBW[b], fineBW[b])
			}
		}
	})
}

func TestParContractTwoLevels(t *testing.T) {
	// Contraction composes: contract twice and check weight conservation.
	g, _ := gen.PlantedPartition(2000, 30, 10, 0.3, 9)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		l1 := sclp.ParCluster(d, sclp.ParClusterConfig{U: 60, Iterations: 3, Seed: 1})
		r1 := ParContract(d, l1)
		l2 := sclp.ParCluster(r1.Coarse, sclp.ParClusterConfig{U: 200, Iterations: 3, Seed: 2})
		r2 := ParContract(r1.Coarse, l2)
		if w := r2.Coarse.GlobalNodeWeight(); w != g.TotalNodeWeight() {
			t.Errorf("weight after two contractions %d != %d", w, g.TotalNodeWeight())
		}
		if r2.Coarse.GlobalN > r1.Coarse.GlobalN {
			t.Errorf("second contraction grew the graph")
		}
		if err := r2.Coarse.Validate(); err != nil {
			t.Error(err)
		}
	})
}

func TestParProjectThenRefineFeasible(t *testing.T) {
	g := gen.RGG(900, 11)
	const k = 2
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := sclp.ParCluster(d, sclp.ParClusterConfig{U: lmax / 14, Iterations: 3, Seed: 3})
		res := ParContract(d, labels)
		coarse := res.Coarse
		coarsePart := make([]int64, coarse.NTotal())
		for v := int32(0); v < coarse.NTotal(); v++ {
			coarsePart[v] = coarse.ToGlobal(v) % k
		}
		finePart := ParProject(d, coarse, res.FineToCoarse, coarsePart)
		sclp.ParRefine(d, finePart, sclp.ParRefineConfig{K: k, Lmax: lmax, Iterations: 8, Seed: 4})
		for b, w := range d.BlockWeights(finePart, k) {
			if w > lmax {
				t.Errorf("block %d weight %d > lmax %d after refine", b, w, lmax)
			}
		}
	})
}

// TestParLiftTakesClusterLabel: lifting labels that are constant on every
// cluster gives each coarse node its cluster's label, ghosts synced — how
// the V-cycle and kaffpa carry a constraint and an initial partition up the
// hierarchy.
func TestParLiftTakesClusterLabel(t *testing.T) {
	g := gen.RGG(300, 4)
	for _, P := range []int{1, 3} {
		mpi.NewWorld(P).Run(func(c *mpi.Comm) {
			d := dgraph.FromGraph(c, g)
			labels := make([]int64, d.NTotal())
			block := make([]int64, d.NTotal())
			for v := range labels {
				gv := d.ToGlobal(int32(v))
				labels[v] = gv / 6 * 6 // clusters of six consecutive IDs
				block[v] = gv / 6 % 5
			}
			res := ParContract(d, labels)
			lifted := ParLift(d, res.Coarse, res.FineToCoarse, block)
			check := append([]int64(nil), lifted...)
			res.Coarse.SyncGhosts(check)
			for v := int32(0); v < d.NLocal(); v++ {
				cu, ok := res.Coarse.ToLocal(res.FineToCoarse[v])
				if !ok || res.Coarse.IsGhost(cu) {
					continue // owned elsewhere; checked on its owner
				}
				if lifted[cu] != block[v] {
					t.Errorf("P=%d rank %d: node %d in block %d, its coarse node lifted to %d", P, c.Rank(), v, block[v], lifted[cu])
					return
				}
			}
			for v := res.Coarse.NLocal(); v < res.Coarse.NTotal(); v++ {
				if check[v] != lifted[v] {
					t.Errorf("P=%d rank %d: coarse ghost %d stale", P, c.Rank(), v)
					return
				}
			}
		})
	}
}
