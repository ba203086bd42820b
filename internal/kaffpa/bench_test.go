package kaffpa

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/rng"
)

// BenchmarkRecursiveBisect runs the initial partitioner's recursive
// bisection on an isolated-heavy stress case — 55K nodes, 12.5K edges,
// mostly isolated nodes — where splitting the graph into induced subgraphs,
// not growing the bisections, is most of the work. Both the distributed
// coarsening and kaffpa's own pack isolated nodes, so a partitioning run no
// longer hands recursive bisection this shape; it stays as a stress case.
func BenchmarkRecursiveBisect(b *testing.B) {
	const n, m = 55000, 12500
	r := rng.New(42)
	bu := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		if u, v := r.Int31n(n), r.Int31n(n); u != v {
			bu.AddEdge(u, v)
		}
	}
	g := bu.Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recursiveBisect(g, 16, 0.03, rng.New(uint64(i)+1))
	}
}

// webCoarsest is the shape the web-* workloads hand the initial partitioner:
// a coarsest graph of ~700 heavy nodes with an average degree around 130 and
// weighted edges. It also returns planted 16- and 2-block starts with one
// node in six misplaced.
func webCoarsest() (g *graph.Graph, start16, start2 []int32) {
	const n, deg = 700, 130
	r := rng.New(7)
	bu := graph.NewBuilder(n)
	plant := func(v, k int32) int32 {
		if r.Intn(6) == 0 {
			return r.Int31n(k)
		}
		return v * k / n
	}
	start16, start2 = make([]int32, n), make([]int32, n)
	for v := int32(0); v < n; v++ {
		bu.SetNodeWeight(v, 100+r.Int64n(100))
		start16[v] = plant(v, 16)
	}
	for v := int32(0); v < n; v++ {
		for i := 0; i < 3*deg/4; i++ {
			u := r.Int31n(n)
			if r.Intn(4) > 0 { // three draws in four stay within 3/32 of the ring
				u = (v + r.Int31n(3*n/16) - 3*n/32 + n) % n
			}
			if u != v {
				bu.AddEdgeW(v, u, 1+r.Int64n(20))
			}
		}
	}
	g = bu.Build()
	for v := range start2 {
		start2[v] = plant(int32(v), 2)
	}
	return g, start16, start2
}

// BenchmarkFMRefine runs FM on webCoarsest from its planted starts. k=16 is
// initialPartition's k-way FM (4 rounds), k=2 the FM that polishes each of
// recursive bisection's grown bisections (8 rounds, bisectionBounds'
// per-side bounds).
func BenchmarkFMRefine(b *testing.B) {
	g, start16, start2 := webCoarsest()
	total := g.TotalNodeWeight()
	_, halves := bisectionBounds(total, 2, 0.03)
	for _, c := range []struct {
		k      int32
		rounds int
		lmax   []int64
		start  []int32
	}{
		{16, 4, uniformBounds(16, total/16+total/16/33), start16},
		{2, 8, halves, start2},
	} {
		b.Run(fmt.Sprintf("k=%d", c.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fmRefine(g, slices.Clone(c.start), c.lmax, c.rounds, uint64(i)+1)
			}
		})
	}
}

// BenchmarkPartition is one whole kaffpa call on webCoarsest at k=16, as the
// evolutionary algorithm makes it: fresh is an individual of the initial
// population, combine the combine operator's call, with both parents' cut
// edges kept out of contraction and the better parent as the start.
func BenchmarkPartition(b *testing.B) {
	g, _, _ := webCoarsest()
	const k = 16
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig(k)
			cfg.Seed = uint64(i) + 1
			if _, err := Partition(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("combine", func(b *testing.B) {
		parent := func(seed uint64) []int32 {
			cfg := DefaultConfig(k)
			cfg.Seed = seed
			p, err := Partition(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}
		p1, p2 := parent(1), parent(2)
		better := p1
		if partition.EdgeCut(g, p2) < partition.EdgeCut(g, p1) {
			better = p2
		}
		constraint := CompositeConstraint(p1, p2, k)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := DefaultConfig(k)
			cfg.Seed = uint64(i) + 3
			cfg.Constraint, cfg.InitialPartition = constraint, better
			if _, err := Partition(g, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
