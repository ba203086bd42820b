package dgraph

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// BenchmarkBuild times FromGraph, the construction of one level (ghost
// interning, the halo plan, the ghost weights and the edge count), on a
// web graph of the web-p2 benchmark workload's size at P=2. B/op is what
// both ranks allocate for the level.
func BenchmarkBuild(b *testing.B) {
	g, err := gen.ByFamily(gen.FamilyWeb, 131072, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(2)
	b.ReportAllocs()
	b.ResetTimer()
	w.Run(func(c *mpi.Comm) {
		for i := 0; i < b.N; i++ {
			FromGraph(c, g)
		}
	})
}
