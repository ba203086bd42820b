package sclp

import (
	"testing"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
)

// benchOneRank runs fn b.N times on g distributed over a one-rank world, the
// way kaffpa runs the kernels; building the level is not timed.
func benchOneRank(b *testing.B, g *graph.Graph, fn func(d *dgraph.DGraph, i int)) {
	mpi.NewWorld(1).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(d, i)
		}
	})
}

func BenchmarkClusterCommunity(b *testing.B) {
	g, _ := gen.PlantedPartition(20000, 100, 10, 0.5, 1)
	benchOneRank(b, g, func(d *dgraph.DGraph, i int) {
		ParCluster(d, ParClusterConfig{U: 600, Iterations: 3, DegreeOrder: true, PhasesPerRound: 1, Seed: uint64(i + 1)})
	})
}

func BenchmarkClusterMesh(b *testing.B) {
	g := gen.DelaunayLike(20000, 1)
	benchOneRank(b, g, func(d *dgraph.DGraph, i int) {
		ParCluster(d, ParClusterConfig{U: 600, Iterations: 3, DegreeOrder: true, PhasesPerRound: 1, Seed: uint64(i + 1)})
	})
}

func BenchmarkRefineSeq(b *testing.B) {
	g := gen.DelaunayLike(20000, 2)
	lmax := partition.Lmax(g.TotalNodeWeight(), 4, 0.03)
	part := make([]int64, g.NumNodes())
	benchOneRank(b, g, func(d *dgraph.DGraph, i int) {
		for v := range part {
			part[v] = int64(v % 4)
		}
		ParRefine(d, part, ParRefineConfig{K: 4, Lmax: lmax, Iterations: 6, PhasesPerRound: 1, Seed: uint64(i + 1)})
	})
}

func BenchmarkParClusterP4(b *testing.B) {
	g, _ := gen.PlantedPartition(20000, 100, 10, 0.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.NewWorld(4).Run(func(c *mpi.Comm) {
			d := dgraph.FromGraph(c, g)
			ParCluster(d, ParClusterConfig{U: 600, Iterations: 3, DegreeOrder: true, Seed: uint64(i + 1)})
		})
	}
}

// BenchmarkParClusterLarge is one coarsening level's ParCluster call on
// graphs whose label, weight and CSR arrays do not fit in L2 (the n=20000
// benchmarks above do), so the cost of the visit order's memory access
// pattern shows: on one rank, and for web also on two in-process ranks,
// the web-p2 workload's shape. U is what the V-cycle uses for the
// benchmark's web (k=16, f=14) and mesh (k=2, f=20000) runs. Only
// ParCluster is timed, on rank 0.
func BenchmarkParClusterLarge(b *testing.B) {
	web, err := gen.ByFamily(gen.FamilyWeb, 131072, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
		k    int32
		f    int64
		P    int
	}{
		{"web-131072-P1", web, 16, 14, 1},
		{"web-131072-P2", web, 16, 14, 2},
		{"delaunay-524288-P1", gen.DelaunayLike(524288, 1), 2, 20000, 1},
	} {
		b.Run(bc.name, func(b *testing.B) {
			u := max(partition.Lmax(bc.g.TotalNodeWeight(), bc.k, 0.03)/bc.f, 1)
			mpi.NewWorld(bc.P).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, bc.g)
				ar := arena.New()
				rank0 := c.Rank() == 0
				c.AllreduceSum1(0) // barrier
				if rank0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					ParCluster(d, ParClusterConfig{U: u, Iterations: 3, DegreeOrder: true, Seed: uint64(i + 1), Arena: ar})
					if rank0 {
						b.StopTimer()
					}
					ar.Reset()
					c.AllreduceSum1(0) // barrier
					if rank0 {
						b.StartTimer()
					}
				}
			})
		})
	}
}

// benchGraph is the shared instance for the label-exchange benchmarks: a
// community graph whose random cross edges give every rank interface nodes
// towards every other rank.
func benchExchangeGraph() *graph.Graph {
	g, _ := gen.PlantedPartition(8000, 50, 8, 0.5, 7)
	return g
}

// BenchmarkExchangeLabels measures one plan-based label-exchange superstep
// (every interface node dirty — the worst case). Compare allocs/op against
// BenchmarkExchangeLabelsDense: the steady path stages into reusable
// buffers and allocates only the one copy of each message that its
// receiver owns, so it must report a small fraction of the dense
// baseline's allocations (TestExchangeLabelsAllocRatio enforces >= 5x).
func BenchmarkExchangeLabels(b *testing.B) {
	g := benchExchangeGraph()
	b.ReportAllocs()
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			labels[v] = d.ToGlobal(v)
		}
		iface := interfaceNodes(d)
		ds := newDirtySet(d.NLocal())
		superstep := func() {
			for _, v := range iface {
				ds.add(v)
			}
			exchangeLabels(d, labels, nil, ds)
		}
		startSupersteps(b, c, superstep)
		for i := 0; i < b.N; i++ {
			superstep()
		}
	})
}

// startSupersteps runs one warm-up superstep, which sizes the staging
// buffers, waits for every rank and then resets b's timer and counters
// on rank 0, so that a superstep benchmark counts the steady supersteps
// alone: allocs/op does not move with b.N.
func startSupersteps(b *testing.B, c *mpi.Comm, superstep func()) {
	superstep()
	c.AllreduceSum1(0) // barrier
	if c.Rank() == 0 {
		b.ResetTimer()
	}
}

// BenchmarkExchangeLabelsDense is the pre-plan baseline: freshly allocated
// [][]int64 buffers, (globalID, label) pairs over the dense Alltoallv, and
// hash-lookup decoding. Kept as the allocation yardstick the plan-based
// path is measured against.
func BenchmarkExchangeLabelsDense(b *testing.B) {
	g := benchExchangeGraph()
	b.ReportAllocs()
	b.ResetTimer()
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		labels := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			labels[v] = d.ToGlobal(v)
		}
		iface := interfaceNodes(d)
		for i := 0; i < b.N; i++ {
			out := make([][]int64, c.Size())
			for _, v := range iface {
				for _, rk := range d.AdjacentRanks(v) {
					out[rk] = append(out[rk], d.ToGlobal(v), labels[v])
				}
			}
			in := c.Alltoallv(out)
			for _, buf := range in {
				for j := 0; j+1 < len(buf); j += 2 {
					lu, ok := d.ToLocal(buf[j])
					if !ok || !d.IsGhost(lu) {
						continue
					}
					labels[lu] = buf[j+1]
				}
			}
		}
	})
}

func interfaceNodes(d *dgraph.DGraph) []int32 {
	var iface []int32
	for v := int32(0); v < d.NLocal(); v++ {
		if d.IsInterface(v) {
			iface = append(iface, v)
		}
	}
	return iface
}

// TestExchangeLabelsAllocRatio is the allocation regression guard for the
// acceptance criterion: the plan-based exchange must report at least 5x
// fewer allocs/op than the dense baseline.
func TestExchangeLabelsAllocRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	plan := testing.Benchmark(BenchmarkExchangeLabels)
	dense := testing.Benchmark(BenchmarkExchangeLabelsDense)
	pa, da := plan.AllocsPerOp(), dense.AllocsPerOp()
	t.Logf("allocs/op: plan=%d dense=%d", pa, da)
	if pa == 0 {
		return
	}
	if da/pa < 5 {
		t.Errorf("plan-based exchange allocates %d/op vs dense %d/op: ratio %.1f < 5",
			pa, da, float64(da)/float64(pa))
	}
}

// BenchmarkSuperstepTracerDisabled measures one full label-exchange
// superstep with the per-superstep tracer instrumentation on its disabled
// (nil tracer) path — exactly what production runs without -trace execute.
// Pair with BenchmarkExchangeLabels (which predates the instrumentation
// hooks in the phase loop): allocs/op must be identical, i.e. the disabled
// tracer adds zero allocations to the superstep hot path.
func BenchmarkSuperstepTracerDisabled(b *testing.B) {
	g := benchExchangeGraph()
	b.ReportAllocs()
	mpi.NewWorld(4).Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		tracer := c.Tracer() // nil: no SetTracer call
		labels := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			labels[v] = d.ToGlobal(v)
		}
		iface := interfaceNodes(d)
		ds := newDirtySet(d.NLocal())
		phase := int64(0)
		superstep := func() {
			sp := tracer.Begin(c.Rank(), "sclp.cluster_superstep")
			for _, v := range iface {
				ds.add(v)
			}
			exchangeLabels(d, labels, nil, ds)
			tracer.End2(sp, "moves", int64(len(iface)), "phase", phase)
			phase++
		}
		startSupersteps(b, c, superstep)
		for i := 0; i < b.N; i++ {
			superstep()
		}
	})
}

// TestDisabledTracerZeroAllocOverhead is the acceptance criterion for the
// observability PR: the instrumented superstep with a nil tracer must
// allocate no more per op than the identical uninstrumented superstep.
func TestDisabledTracerZeroAllocOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	plain := testing.Benchmark(BenchmarkExchangeLabels)
	traced := testing.Benchmark(BenchmarkSuperstepTracerDisabled)
	pa, ta := plain.AllocsPerOp(), traced.AllocsPerOp()
	t.Logf("allocs/op: plain=%d traced(nil)=%d", pa, ta)
	if ta > pa {
		t.Errorf("disabled tracer adds allocations to the superstep: %d > %d allocs/op", ta, pa)
	}
}

func BenchmarkParRefineP4(b *testing.B) {
	g := gen.DelaunayLike(20000, 4)
	lmax := partition.Lmax(g.TotalNodeWeight(), 4, 0.03)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.NewWorld(4).Run(func(c *mpi.Comm) {
			d := dgraph.FromGraph(c, g)
			part := make([]int64, d.NTotal())
			for v := int32(0); v < d.NTotal(); v++ {
				part[v] = d.ToGlobal(v) % 4
			}
			ParRefine(d, part, ParRefineConfig{K: 4, Lmax: lmax, Iterations: 6, Seed: uint64(i + 1)})
		})
	}
}

// BenchmarkParRefineInterior is refinement where it is cheapest to be
// right: a mesh cut in two halves of the ID range (mesh-p2's shape at a
// fine level), so all but the nodes along the cut have no neighbour outside
// their block and nothing to rate. Reports the measured interior share.
func BenchmarkParRefineInterior(b *testing.B) {
	g := gen.DelaunayLike(65536, 4)
	n := int64(g.NumNodes())
	lmax := partition.Lmax(g.TotalNodeWeight(), 2, 0.03)
	var stats ParStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mpi.NewWorld(2).Run(func(c *mpi.Comm) {
			d := dgraph.FromGraph(c, g)
			part := make([]int64, d.NTotal())
			for v := int32(0); v < d.NTotal(); v++ {
				part[v] = d.ToGlobal(v) * 2 / n
			}
			cfg := ParRefineConfig{K: 2, Lmax: lmax, Iterations: 6, Seed: uint64(i + 1)}
			if c.Rank() == 0 {
				cfg.Stats = &stats
			}
			ParRefine(d, part, cfg)
		})
	}
	b.ReportMetric(float64(stats.Interior)/float64(stats.Evaluated), "interior/evaluated")
}

// BenchmarkParRefineRounds is a whole ParRefine call from the kind of start
// uncoarsening gives it: a partition refinement has already settled (here:
// contiguous blocks, refined once outside the timer), with one node in fifty
// knocked into a neighbour's block the way a projection blurs boundaries.
// Reports rank 0's node evaluations per call next to the time — the count
// the active-node rule exists to cut (six full rounds would be 6x the rank's
// nodes, plus commits).
func BenchmarkParRefineRounds(b *testing.B) {
	web, err := gen.ByFamily(gen.FamilyWeb, 32768, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
		k    int64
	}{
		{"delaunay-65536-k2-P2", gen.DelaunayLike(65536, 4), 2},
		{"web-32768-k16-P2", web, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			n := int64(bc.g.NumNodes())
			lmax := partition.Lmax(bc.g.TotalNodeWeight(), int32(bc.k), 0.03)
			start := make([]int64, n)
			for gv := range start {
				start[gv] = int64(gv) * bc.k / n
			}
			refine := func(seed uint64, stats *ParStats) {
				mpi.NewWorld(2).Run(func(c *mpi.Comm) {
					d := dgraph.FromGraph(c, bc.g)
					part := make([]int64, d.NTotal())
					for v := range part {
						part[v] = start[d.ToGlobal(int32(v))]
					}
					cfg := ParRefineConfig{K: int32(bc.k), Lmax: lmax, Iterations: 6, Seed: seed}
					if c.Rank() == 0 {
						cfg.Stats = stats
					}
					ParRefine(d, part, cfg)
					if stats == nil { // the set-up call: keep what it settled on
						settled := c.Allgatherv(part[:d.NLocal()])
						if c.Rank() == 0 {
							for p, theirs := range settled {
								copy(start[d.VtxDist[p]:], theirs)
							}
						}
					}
				})
			}
			refine(1, nil)
			r := rng.New(2)
			for i := int64(0); i < n/50; i++ {
				if v := r.Int31n(int32(n)); bc.g.Degree(v) > 0 {
					start[v] = start[bc.g.Neighbors(v)[r.Intn(int(bc.g.Degree(v)))]]
				}
			}
			var stats ParStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				refine(uint64(i+1), &stats)
			}
			b.ReportMetric(float64(stats.Evaluated)/float64(b.N), "evaluated/op")
		})
	}
}
