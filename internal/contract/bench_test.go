package contract

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/sclp"
)

func BenchmarkParContractP4(b *testing.B) {
	g, _ := gen.PlantedPartition(20000, 100, 10, 0.5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.NewWorld(4).Run(func(c *mpi.Comm) {
			d := dgraph.FromGraph(c, g)
			labels := sclp.ParCluster(d, sclp.ParClusterConfig{U: 600, Iterations: 3, Seed: 1})
			ParContract(d, labels)
		})
	}
}

// BenchmarkParContract times the contraction alone at a size that leaves
// cache — the first level of the web-p2 and rmat-tcp benchmark workloads.
// The clustering runs once, outside the timer.
func BenchmarkParContract(b *testing.B) {
	for _, fam := range []gen.Family{gen.FamilyWeb, gen.FamilyRMAT} {
		b.Run(fmt.Sprintf("%s-131072/P=2", fam), func(b *testing.B) {
			g, err := gen.ByFamily(fam, 131072, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			mpi.NewWorld(2).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, g)
				labels := sclp.ParCluster(d, sclp.ParClusterConfig{U: 600, Iterations: 3, DegreeOrder: true, Seed: 1})
				ar := arena.New()
				c.AllreduceSum1(0) // barrier
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					ParContractWith(d, labels, ContractOptions{Arena: ar})
					ar.Reset()
				}
			})
		})
	}
}

// contractAllocs returns the heap allocations of one ParContractWith call,
// summed over the P ranks of an in-process world, with blocks of eight
// consecutive nodes as clusters.
func contractAllocs(g *graph.Graph, P int) (allocs uint64) {
	mpi.NewWorld(P).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := range labels {
			labels[v] = d.ToGlobal(int32(v)) / 8 * 8
		}
		ar := arena.New()
		ParContractWith(d, labels, ContractOptions{Arena: ar}) // warm the world's buffer pool
		ar.Reset()
		var before, after runtime.MemStats
		c.AllreduceSum1(0) // barrier
		if c.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		c.AllreduceSum1(0) // barrier
		ParContractWith(d, labels, ContractOptions{Arena: ar})
		c.AllreduceSum1(0) // barrier
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			allocs = after.Mallocs - before.Mallocs
		}
	})
	return allocs
}

// TestParContractAllocCeiling is the allocation guard of the group-by-cluster
// assembly: one call allocates a bounded number of objects per rank — buffers
// sized once or grown by doubling, never one per arc or per cluster — so
// eight times the arcs on the same clustering stays under the same ceiling.
func TestParContractAllocCeiling(t *testing.T) {
	const n, P = 20000, 2
	for _, avgDeg := range []int{8, 64} {
		g := sparseWeightedGraph(n, avgDeg, 3)
		allocs := contractAllocs(g, P)
		ceiling := uint64(400 * P)
		t.Logf("m=%d: %d allocs, ceiling %d", g.NumEdges(), allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("m=%d: %d allocations > %d = 400 x %d ranks", g.NumEdges(), allocs, ceiling, P)
		}
	}
}
