package sclp

import (
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/testutil"
)

func TestParClusterGhostsSynced(t *testing.T) {
	g := gen.RGG(400, 1)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := ParCluster(d, ParClusterConfig{U: 30, Iterations: 3, Seed: 1})
		// Pull owners' labels and compare with our ghost copies.
		check := append([]int64(nil), labels...)
		d.SyncGhosts(check)
		for v := d.NLocal(); v < d.NTotal(); v++ {
			if check[v] != labels[v] {
				t.Errorf("rank %d: ghost %d stale: have %d, owner has %d",
					c.Rank(), v, labels[v], check[v])
				return
			}
		}
	})
}

func TestParClusterSizeConstraintGlobally(t *testing.T) {
	g := gen.RGG(600, 2)
	const U = 25
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := ParCluster(d, ParClusterConfig{U: U, Iterations: 3, Seed: 2})
		// Aggregate true global cluster weights.
		local := make(map[int64]int64)
		for v := int32(0); v < d.NLocal(); v++ {
			local[labels[v]] += d.NW[v]
		}
		var flat []int64
		for l, w := range local {
			flat = append(flat, l, w)
		}
		parts := c.Allgatherv(flat)
		if c.Rank() == 0 {
			total := make(map[int64]int64)
			for _, p := range parts {
				for i := 0; i+1 < len(p); i += 2 {
					total[p[i]] += p[i+1]
				}
			}
			for l, w := range total {
				// The coarsening constraint is soft (locally maintained
				// weights), so allow a bounded overshoot: one extra local
				// contribution per rank.
				if w > U*int64(c.Size()) {
					t.Errorf("cluster %d weight %d far above U=%d", l, w, U)
				}
			}
		}
	})
}

func TestParClusterTwoCliquesAcrossRanks(t *testing.T) {
	// Two 6-cliques joined by an edge, nodes interleaved across ranks so
	// clusters must form across PE boundaries.
	b := graph.NewBuilder(12)
	for u := int32(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+6, v+6)
		}
	}
	b.AddEdge(5, 6)
	g := b.Build()
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := ParCluster(d, ParClusterConfig{U: 6, Iterations: 8, Seed: 5})
		// All local nodes of the same clique share a label.
		for v := int32(0); v < d.NLocal(); v++ {
			gv := d.ToGlobal(v)
			for u := int32(0); u < d.NLocal(); u++ {
				gu := d.ToGlobal(u)
				sameClique := (gv < 6) == (gu < 6)
				if sameClique && labels[v] != labels[u] {
					t.Errorf("rank %d: nodes %d,%d in one clique but labels %d,%d",
						c.Rank(), gv, gu, labels[v], labels[u])
					return
				}
			}
		}
	})
}

func TestParClusterMatchesSequentialShrink(t *testing.T) {
	// Clustering on 4 ranks should shrink a community graph about as well as
	// on one, kaffpa's clustering (not identically — different orders).
	g, _ := gen.PlantedPartition(2000, 20, 10, 0.2, 7)
	seqLabels := clusterOneRank(g, ParClusterConfig{U: 200, Iterations: 3, DegreeOrder: true, Seed: 1})
	seqDistinct := make(map[int32]bool)
	for _, l := range seqLabels {
		seqDistinct[l] = true
	}
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := ParCluster(d, ParClusterConfig{U: 200, Iterations: 3, DegreeOrder: true, Seed: 1})
		local := make(map[int64]bool)
		for v := int32(0); v < d.NLocal(); v++ {
			local[labels[v]] = true
		}
		var flat []int64
		for l := range local {
			flat = append(flat, l)
		}
		parts := c.Allgatherv(flat)
		if c.Rank() == 0 {
			global := make(map[int64]bool)
			for _, p := range parts {
				for _, l := range p {
					global[l] = true
				}
			}
			if len(global) > 4*len(seqDistinct)+50 {
				t.Errorf("4 ranks found %d clusters, one rank %d", len(global), len(seqDistinct))
			}
		}
	})
}

func TestParClusterConstraint(t *testing.T) {
	g := gen.RGG(300, 3)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		constraint := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			constraint[v] = d.ToGlobal(v) % 2
		}
		labels := ParCluster(d, ParClusterConfig{
			U: 50, Iterations: 4, Constraint: constraint, Seed: 4,
		})
		// A node's label names a cluster representative; under the
		// constraint that representative must share the node's class.
		for v := int32(0); v < d.NLocal(); v++ {
			if labels[v]%2 != constraint[v] {
				t.Errorf("rank %d: node %d (class %d) in cluster %d",
					c.Rank(), d.ToGlobal(v), constraint[v], labels[v])
				return
			}
		}
	})
}

func TestParRefineImprovesCut(t *testing.T) {
	g := gen.DelaunayLike(1600, 4)
	const k = 2
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) % 2 // poor but balanced start
		}
		before := d.EdgeCut(part)
		moves := ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 6, Seed: 3})
		after := d.EdgeCut(part)
		if moves == 0 {
			t.Error("no moves on an odd/even partition")
		}
		if after >= before {
			t.Errorf("cut %d -> %d", before, after)
		}
		bw := d.BlockWeights(part, k)
		for b, w := range bw {
			if w > lmax {
				t.Errorf("block %d weight %d exceeds lmax %d", b, w, lmax)
			}
		}
	})
}

func TestParRefineNeverExceedsLmax(t *testing.T) {
	g := gen.RGG(800, 6)
	const k = 4
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) % k
		}
		ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 5, Seed: 6})
		for b, w := range d.BlockWeights(part, k) {
			if w > lmax {
				t.Errorf("block %d weight %d exceeds lmax %d", b, w, lmax)
			}
		}
	})
}

func TestParRefineGhostConsistency(t *testing.T) {
	g := gen.DelaunayLike(900, 8)
	const k = 3
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	mpi.NewWorld(3).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) % k
		}
		ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 4, Seed: 7})
		check := append([]int64(nil), part...)
		d.SyncGhosts(check)
		for v := d.NLocal(); v < d.NTotal(); v++ {
			if check[v] != part[v] {
				t.Errorf("rank %d: ghost %d stale after refine", c.Rank(), v)
				return
			}
		}
	})
}

func TestParRefineSingleRankMatchesConstraints(t *testing.T) {
	// On one rank the parallel refinement reduces to the sequential
	// behaviour: cut never worsens from a good start.
	g := gen.DelaunayLike(400, 9)
	const k = 2
	n := g.NumNodes()
	lmax := partition.Lmax(g.TotalNodeWeight(), k, 0.03)
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			if d.ToGlobal(v) >= int64(n)/2 {
				part[v] = 1
			}
		}
		before := d.EdgeCut(part)
		ParRefine(d, part, ParRefineConfig{K: k, Lmax: lmax, Iterations: 4, Seed: 8})
		if after := d.EdgeCut(part); after > before {
			t.Errorf("cut worsened %d -> %d", before, after)
		}
	})
}

func TestParRefineUnevenLocalCounts(t *testing.T) {
	// Regression: with 197 nodes on 4 ranks the local counts are 50/49/49/49.
	// A phase count derived from ceil(nLocal/chunk) differs across ranks
	// (8 vs 7), desynchronizing the per-phase collectives and deadlocking.
	// Every rank must execute a fixed number of phases.
	g := graph.Path(197)
	lmax := partition.Lmax(g.TotalNodeWeight(), 2, 0.03)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) % 2
		}
		ParRefine(d, part, ParRefineConfig{K: 2, Lmax: lmax, Iterations: 3, PhasesPerRound: 8, Seed: 1})
	})
}

func TestParClusterUnevenLocalCounts(t *testing.T) {
	g := gen.RGG(197, 5)
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		ParCluster(d, ParClusterConfig{U: 20, Iterations: 3, PhasesPerRound: 8, Seed: 2})
	})
}

func TestParClusterEmptyRanks(t *testing.T) {
	g := graph.Path(3)
	mpi.NewWorld(5).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := ParCluster(d, ParClusterConfig{U: 3, Iterations: 3, Seed: 1})
		if int32(len(labels)) != d.NTotal() {
			t.Errorf("rank %d: %d labels", c.Rank(), len(labels))
		}
	})
}

// TestParClusterLabelIndices checks the translation between ParCluster's
// int32 label indices and the global IDs it returns and exchanges: every
// label is a node ID, every ghost entry is its owner's label for the node,
// and some rank saw a ghost join a cluster whose ID is neither local nor a
// ghost there, so the foreign-label path ran.
func TestParClusterLabelIndices(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		u    int64
	}{
		{"hub", testutil.HubMesh(3800, 128, 80, 2), 60},
		{"rmat-16K", gen.RMAT(14, 8, 0.57, 0.19, 0.19, 6), 40},
	} {
		for _, P := range []int{2, 3, 4} {
			var foreign int64
			mpi.NewWorld(P).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, tc.g)
				labels := ParCluster(d, ParClusterConfig{U: tc.u, Iterations: 3, DegreeOrder: true, Seed: 7})
				for v, l := range labels {
					if l < 0 || l >= d.GlobalN {
						t.Errorf("%s P=%d rank %d: node %d has label %d, not a node ID", tc.name, P, c.Rank(), v, l)
						return
					}
				}
				owners := slices.Clone(labels)
				d.SyncGhosts(owners)
				var n int64
				for v := d.NLocal(); v < d.NTotal(); v++ {
					if labels[v] != owners[v] {
						t.Errorf("%s P=%d rank %d: ghost %d has label %d, its owner %d", tc.name, P, c.Rank(), v, labels[v], owners[v])
						return
					}
					if _, known := d.ToLocal(labels[v]); !known {
						n++
					}
				}
				if total := c.AllreduceSum1(n); c.Rank() == 0 {
					foreign = total
				}
			})
			if foreign == 0 {
				t.Errorf("%s P=%d: no ghost ended in a foreign cluster; the foreign-label path did not run", tc.name, P)
			}
		}
	}
}
