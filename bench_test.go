// Benchmarks regenerating the paper's tables and figures (see DESIGN.md §4
// for the experiment index, and EXPERIMENTS.md for recorded results).
//
// Each benchmark reports the edge cut of the produced partition via
// b.ReportMetric (unit "cut") next to the usual ns/op, so a -bench run
// yields both columns of the paper's tables: quality and time.
package parhip

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/evo"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchbase"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/sclp"
)

// benchPEs is the simulated PE count for table benchmarks (the paper uses
// 32 PEs of machine A; goroutine ranks beyond the core count add no
// speed, so a laptop-friendly count is used).
const benchPEs = 4

// --- Table I: benchmark set properties -----------------------------------

func BenchmarkTable1Properties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, inst := range exp.BenchmarkSet(1) {
			g := inst.Gen(42)
			if g.NumNodes() == 0 {
				b.Fatal("empty instance")
			}
		}
	}
}

// --- Tables II and III: cut and time per instance and algorithm ----------

func benchTable(b *testing.B, k int32) {
	for _, inst := range exp.BenchmarkSet(1) {
		g := inst.Gen(42)
		// Per-PE memory budget n/6 nodes, floored at twice the coarsening
		// target so the baseline is never failed merely for stopping at
		// its own coarsest-size limit (matches exp.RunTable).
		budget := int64(g.NumNodes()) / 6
		if floor := 2 * matchbase.CoarsestPerBlock * int64(k); budget < floor {
			budget = floor
		}
		b.Run(inst.Name+"/baseline", func(b *testing.B) {
			var cut int64
			failed := false
			for i := 0; i < b.N; i++ {
				cfg := matchbase.DefaultConfig(k)
				cfg.Seed = uint64(i + 1)
				cfg.MemoryBudgetNodes = budget
				res, err := matchbase.RunCtx(context.Background(), benchPEs, g, cfg)
				if err != nil {
					failed = true // the paper's "*" entries
					continue
				}
				cut = res.Stats.Cut
			}
			if failed {
				b.ReportMetric(-1, "cut") // -1 marks a memory-budget failure
			} else {
				b.ReportMetric(float64(cut), "cut")
			}
		})
		b.Run(inst.Name+"/fast", func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(k, inst.Class)
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
		b.Run(inst.Name+"/eco", func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.EcoConfig(k, inst.Class)
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

func BenchmarkTable2K2(b *testing.B)  { benchTable(b, 2) }
func BenchmarkTable3K32(b *testing.B) { benchTable(b, 32) }

// --- Figure 5: weak scaling ----------------------------------------------

func BenchmarkFig5Weak(b *testing.B) {
	for _, fam := range []string{"rgg", "delaunay"} {
		for _, p := range []int{1, 2, 4} {
			n := int32(4096 * p)
			var g *graph.Graph
			if fam == "rgg" {
				g = gen.RGG(n, 1)
			} else {
				g = gen.DelaunayLike(n, 1)
			}
			for _, algo := range []string{"fast", "baseline"} {
				name := fmt.Sprintf("%s/p=%d/%s", fam, p, algo)
				b.Run(name, func(b *testing.B) {
					var cut int64
					for i := 0; i < b.N; i++ {
						if algo == "fast" {
							cfg := core.FastConfig(16, core.ClassMesh)
							cfg.Seed = uint64(i + 1)
							res, err := core.RunOn(context.Background(), mpi.NewWorld(p), g, cfg)
							if err != nil {
								b.Fatal(err)
							}
							cut = res.Stats.Cut
						} else {
							cfg := matchbase.DefaultConfig(16)
							cfg.Seed = uint64(i + 1)
							res, err := matchbase.RunCtx(context.Background(), p, g, cfg)
							if err != nil {
								b.Fatal(err)
							}
							cut = res.Stats.Cut
						}
					}
					b.ReportMetric(float64(cut), "cut")
					b.ReportMetric(float64(g.NumEdges()), "edges")
				})
			}
		}
	}
}

// --- Figure 6: strong scaling --------------------------------------------

func BenchmarkFig6StrongDel(b *testing.B) { benchStrong(b, "del") }
func BenchmarkFig6StrongRgg(b *testing.B) { benchStrong(b, "rgg") }
func BenchmarkFig6StrongWeb(b *testing.B) { benchStrong(b, "web") }

func benchStrong(b *testing.B, which string) {
	insts := exp.DefaultStrongInstances(1)
	var inst exp.StrongInstance
	found := false
	for _, in := range insts {
		if in.Name == which {
			inst, found = in, true
		}
	}
	if !found {
		b.Fatalf("no instance %q", which)
	}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fast/p=%d", p), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(16, inst.Class)
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(p), inst.G, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
	// Baseline datapoint (fails on the web instance under its budget, as
	// ParMETIS does in the paper).
	b.Run("baseline/p=4", func(b *testing.B) {
		var cut int64
		failed := false
		for i := 0; i < b.N; i++ {
			cfg := matchbase.DefaultConfig(16)
			cfg.Seed = uint64(i + 1)
			if inst.BudgetDivisor > 0 {
				cfg.MemoryBudgetNodes = int64(inst.G.NumNodes()) / inst.BudgetDivisor
			}
			res, err := matchbase.RunCtx(context.Background(), 4, inst.G, cfg)
			if err != nil {
				failed = true
				continue
			}
			cut = res.Stats.Cut
		}
		if failed {
			b.ReportMetric(-1, "cut")
		} else {
			b.ReportMetric(float64(cut), "cut")
		}
	})
	if which == "web" {
		// The paper's minimal variant on the largest web graph.
		b.Run("minimal/p=4", func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.MinimalConfig(16, inst.Class)
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(4), inst.G, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// --- §V-B: coarsening effectiveness --------------------------------------

func BenchmarkCoarseningShrink(b *testing.B) {
	web, _ := gen.PlantedPartition(12000, 80, 10, 0.4, 1)
	b.Run("cluster-contraction", func(b *testing.B) {
		var shrink float64
		for i := 0; i < b.N; i++ {
			rep := exp.RunShrink("web", web, benchPEs, core.ClassSocial, uint64(i+1))
			if len(rep.ClusterLevels) >= 2 {
				shrink = float64(rep.ClusterLevels[0]) / float64(rep.ClusterLevels[1])
			}
		}
		b.ReportMetric(shrink, "first-shrink-x")
	})
}

// --- Ablations (design choices called out in DESIGN.md §4) ----------------

// BenchmarkAblationNodeOrder compares ascending-degree vs random traversal
// in the coarsening label propagation (§III-A claims degree ordering
// improves quality and speed), on one rank as kaffpa clusters.
func BenchmarkAblationNodeOrder(b *testing.B) {
	g, _ := gen.PlantedPartition(10000, 60, 10, 0.5, 2)
	for _, degree := range []bool{true, false} {
		name := "random"
		if degree {
			name = "degree"
		}
		b.Run(name, func(b *testing.B) {
			var clusters int
			mpi.NewWorld(1).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, g)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					labels := sclp.ParCluster(d, sclp.ParClusterConfig{
						U: 300, Iterations: 3, DegreeOrder: degree, PhasesPerRound: 1, Seed: uint64(i + 1),
					})
					distinct := make(map[int64]bool)
					for _, l := range labels {
						distinct[l] = true
					}
					clusters = len(distinct)
				}
			})
			b.ReportMetric(float64(clusters), "clusters")
		})
	}
}

// BenchmarkAblationSizeFactor compares the coarsening size factor f = 14
// (social default) against f = 20000 (mesh default) on a social graph.
func BenchmarkAblationSizeFactor(b *testing.B) {
	g, _ := gen.PlantedPartition(8000, 50, 10, 0.5, 3)
	for _, f := range []float64{14, 150, 20000} {
		b.Run(fmt.Sprintf("f=%g", f), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(8, core.ClassSocial)
				cfg.SizeFactor = f
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkAblationVCycles compares 1, 2 and 5 V-cycles (minimal / fast /
// eco structure, §IV-D).
func BenchmarkAblationVCycles(b *testing.B) {
	g, _ := gen.PlantedPartition(8000, 50, 10, 0.8, 4)
	for _, vc := range []int{1, 2, 5} {
		b.Run(fmt.Sprintf("v=%d", vc), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(8, core.ClassSocial)
				cfg.VCycles = vc
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkAblationLPIters varies the refinement label propagation
// iteration count around the paper's default of 6.
func BenchmarkAblationLPIters(b *testing.B) {
	g, _ := gen.PlantedPartition(8000, 50, 10, 0.8, 5)
	for _, r := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(8, core.ClassSocial)
				cfg.RefineIters = r
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkAblationEvoBudget compares initial-population-only (fast) with
// growing evolutionary budgets on the coarsest graph.
func BenchmarkAblationEvoBudget(b *testing.B) {
	g, _ := gen.PlantedPartition(6000, 40, 10, 0.8, 6)
	coarse := g
	for _, rounds := range []int{0, 3, 8} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			var cut int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(8, core.ClassSocial)
				cfg.EvoRounds = rounds
				cfg.Seed = uint64(i + 1)
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), coarse, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkAblationObjective compares evolutionary objectives (§VI): the
// cut objective against communication-volume-oriented fitness.
func BenchmarkAblationObjective(b *testing.B) {
	g, _ := gen.PlantedPartition(4000, 30, 10, 0.8, 8)
	objectives := []struct {
		name string
		obj  evo.Objective
	}{
		{"cut", evo.ObjectiveCut},
		{"commvol", evo.ObjectiveCommVol},
		{"maxquotdeg", evo.ObjectiveMaxQuotientDegree},
	}
	for _, o := range objectives {
		b.Run(o.name, func(b *testing.B) {
			var cut, vol int64
			for i := 0; i < b.N; i++ {
				cfg := core.FastConfig(8, core.ClassSocial)
				cfg.Seed = uint64(i + 1)
				cfg.Objective = o.obj
				res, err := core.RunOn(context.Background(), mpi.NewWorld(benchPEs), g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				cut = res.Stats.Cut
				vol = partition.CommunicationVolume(g, res.Part, 8)
			}
			b.ReportMetric(float64(cut), "cut")
			b.ReportMetric(float64(vol), "commvol")
		})
	}
}

// --- Micro-benchmarks of the primitives ----------------------------------

func BenchmarkParLabelPropagation(b *testing.B) {
	g, _ := gen.PlantedPartition(20000, 100, 10, 0.5, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := exp.RunShrink("bench", g, benchPEs, core.ClassSocial, uint64(i+1))
		_ = rep
	}
}

func BenchmarkEvolutionaryCombine(b *testing.B) {
	g, _ := gen.PlantedPartition(1500, 12, 9, 0.8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runSession(g, WithK(4), WithPEs(2), WithSeed(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkEvoOnCoarseGraph(b *testing.B) {
	g, _ := gen.PlantedPartition(800, 8, 8, 0.6, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := evo.DefaultConfig(4)
		cfg.Seed = uint64(i + 1)
		cfg.Rounds = 1
		var cut int64
		mpi.NewWorld(2).Run(func(c *mpi.Comm) {
			p := evo.Evolve(context.Background(), c, g, cfg)
			if c.Rank() == 0 {
				cut = partition.EdgeCut(g, p)
			}
		})
		b.ReportMetric(float64(cut), "cut")
	}
}
