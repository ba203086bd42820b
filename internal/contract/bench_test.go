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

// contractAllocs returns the heap allocations and the bytes they took of
// one ParContractWith call, summed over the P ranks of an in-process world,
// with blocks of eight consecutive nodes as clusters.
func contractAllocs(g *graph.Graph, P int) (allocs, bytes uint64) {
	mpi.NewWorld(P).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := range labels {
			labels[v] = d.ToGlobal(int32(v)) / 8 * 8
		}
		ar := arena.New()
		ParContractWith(d, labels, ContractOptions{Arena: ar}) // warm-up: fills the arena's slabs
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
			bytes = after.TotalAlloc - before.TotalAlloc
		}
	})
	return allocs, bytes
}

// TestParContractAllocCeiling is the allocation guard of the group-by-cluster
// assembly: one call allocates a bounded number of objects per rank — buffers
// sized once or grown by doubling, never one per arc or per cluster — so
// eight times the arcs on the same clustering stays under the same ceiling.
//
// It also bounds the bytes allocated per fine arc (runtime.MemStats.
// TotalAlloc). When each owner's quotient records were built in a buffer
// grown record by record, then copied exactly into a send buffer, copied
// onto the wire and cloned by the receiver, the call took 156.9 B per fine
// arc at average degree 8 and 126.0 at 64. Built in reused chunks, copied
// once into the exchange's exact-size scratch and kept by the receiver as
// it arrives, the records take 94.0 and 54.8. (One scratch grown record by
// record, with the same single wire copy, took 136.0 and 110.3.)
func TestParContractAllocCeiling(t *testing.T) {
	const n, P = 20000, 2
	for _, tc := range []struct {
		avgDeg      int
		bytesPerArc float64
	}{{8, 110}, {64, 70}} {
		g := sparseWeightedGraph(n, tc.avgDeg, 3)
		allocs, bytes := contractAllocs(g, P)
		ceiling := uint64(400 * P)
		perArc := float64(bytes) / float64(2*g.NumEdges())
		t.Logf("m=%d: %d allocs, ceiling %d; %.1f B per fine arc, ceiling %.0f",
			g.NumEdges(), allocs, ceiling, perArc, tc.bytesPerArc)
		if allocs > ceiling {
			t.Errorf("m=%d: %d allocations > %d = 400 x %d ranks", g.NumEdges(), allocs, ceiling, P)
		}
		if perArc > tc.bytesPerArc {
			t.Errorf("m=%d: %.1f B allocated per fine arc > %.0f", g.NumEdges(), perArc, tc.bytesPerArc)
		}
	}
}
