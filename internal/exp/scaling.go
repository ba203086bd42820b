package exp

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matchbase"
	"repro/internal/mpi"
)

// WeakPoint is one data point of the Figure 5 weak-scaling experiment.
type WeakPoint struct {
	Family      string
	PEs         int
	N           int32
	M           int64
	FastPerEdge float64 // seconds per edge
	BasePerEdge float64
	FastCut     int64
	BaseCut     int64
	BaseFailed  bool
}

// RunWeakScaling reproduces Figure 5: for p in peList, partition the
// instance with baseNodes*p nodes of each family (rgg, delaunay) into k
// blocks with the fast configuration and the baseline, reporting time per
// edge. The paper uses 2^19 nodes per PE and k=16; the reduced-scale
// default is baseNodes per PE and k as given.
func RunWeakScaling(peList []int, baseNodes int32, k int32, seed uint64) []WeakPoint {
	var out []WeakPoint
	for _, fam := range []string{"rgg", "delaunay"} {
		for _, p := range peList {
			n := baseNodes * int32(p)
			var g *graph.Graph
			if fam == "rgg" {
				g = gen.RGG(n, seed)
			} else {
				g = gen.DelaunayLike(n, seed)
			}
			pt := WeakPoint{Family: fam, PEs: p, N: g.NumNodes(), M: g.NumEdges()}
			fastCfg := core.FastConfig(k, core.ClassMesh)
			fastCfg.Seed = seed
			fres, err := core.RunOn(context.Background(), mpi.NewWorld(p), g, fastCfg)
			if err == nil {
				pt.FastPerEdge = fres.Stats.TotalTime.Seconds() / float64(g.NumEdges())
				pt.FastCut = fres.Stats.Cut
			}
			bcfg := matchbase.DefaultConfig(k)
			bcfg.Seed = seed
			bres, berr := matchbase.RunCtx(context.Background(), p, g, bcfg)
			if berr != nil {
				pt.BaseFailed = true
			} else {
				pt.BasePerEdge = bres.Stats.TotalTime.Seconds() / float64(g.NumEdges())
				pt.BaseCut = bres.Stats.Cut
			}
			out = append(out, pt)
		}
	}
	return out
}

// WriteWeakScaling renders Figure 5 as a text series.
func WriteWeakScaling(w io.Writer, pts []WeakPoint) {
	fmt.Fprintf(w, "Figure 5: weak scaling, time per edge [s] (k=16 in the paper)\n")
	fmt.Fprintf(w, "%-10s %4s %9s %10s | %12s %12s | %10s %10s\n",
		"family", "p", "n", "m", "fast[s/edge]", "base[s/edge]", "fastCut", "baseCut")
	for _, pt := range pts {
		base := "*"
		baseCut := "*"
		if !pt.BaseFailed {
			base = fmt.Sprintf("%.3e", pt.BasePerEdge)
			baseCut = fmt.Sprintf("%d", pt.BaseCut)
		}
		fmt.Fprintf(w, "%-10s %4d %9d %10d | %12.3e %12s | %10d %10s\n",
			pt.Family, pt.PEs, pt.N, pt.M, pt.FastPerEdge, base, pt.FastCut, baseCut)
	}
}

// StrongPoint is one data point of the Figure 6 strong-scaling experiment.
type StrongPoint struct {
	Instance   string
	PEs        int
	FastTime   time.Duration
	FastCut    int64
	BaseTime   time.Duration
	BaseCut    int64
	BaseFailed bool
	// MinimalTime is filled only for the web instance at the largest PE
	// count (the paper runs the minimal variant on uk-2007).
	MinimalTime time.Duration
	HasMinimal  bool
}

// StrongInstance describes one fixed graph for strong scaling.
type StrongInstance struct {
	Name  string
	Class core.GraphClass
	G     *graph.Graph
	// SkipBaseline marks instances the baseline cannot handle (the paper's
	// ParMETIS fails on all large web graphs); the harness still tries it
	// and records the failure.
	BudgetDivisor int64
}

// DefaultStrongInstances builds the Figure 6 instance set at reduced scale:
// two mesh families and a hub-dominated web analogue.
func DefaultStrongInstances(scale int32) []StrongInstance {
	if scale < 1 {
		scale = 1
	}
	web := gen.WebCrawlLike(24000*scale, 120, 10, 0.4, 200, 11)
	return []StrongInstance{
		{Name: "del", Class: core.ClassMesh, G: gen.DelaunayLike(16384*scale, 5)},
		{Name: "rgg", Class: core.ClassMesh, G: gen.RGG(16384*scale, 5)},
		{Name: "web", Class: core.ClassSocial, G: web, BudgetDivisor: 6},
	}
}

// RunStrongScaling reproduces Figure 6: fixed instances, growing PE counts.
func RunStrongScaling(instances []StrongInstance, peList []int, k int32, seed uint64) []StrongPoint {
	var out []StrongPoint
	for _, inst := range instances {
		for i, p := range peList {
			pt := StrongPoint{Instance: inst.Name, PEs: p}
			cfg := core.FastConfig(k, inst.Class)
			cfg.Seed = seed
			res, err := core.RunOn(context.Background(), mpi.NewWorld(p), inst.G, cfg)
			if err == nil {
				pt.FastTime = res.Stats.TotalTime
				pt.FastCut = res.Stats.Cut
			}
			bcfg := matchbase.DefaultConfig(k)
			bcfg.Seed = seed
			if inst.BudgetDivisor > 0 {
				bcfg.MemoryBudgetNodes = int64(inst.G.NumNodes()) / inst.BudgetDivisor
			}
			bres, berr := matchbase.RunCtx(context.Background(), p, inst.G, bcfg)
			if berr != nil {
				pt.BaseFailed = true
			} else {
				pt.BaseTime = bres.Stats.TotalTime
				pt.BaseCut = bres.Stats.Cut
			}
			if inst.Name == "web" && i == len(peList)-1 {
				mcfg := core.MinimalConfig(k, inst.Class)
				mcfg.Seed = seed
				if mres, merr := core.RunOn(context.Background(), mpi.NewWorld(p), inst.G, mcfg); merr == nil {
					pt.MinimalTime = mres.Stats.TotalTime
					pt.HasMinimal = true
				}
			}
			out = append(out, pt)
		}
	}
	return out
}

// WriteStrongScaling renders Figure 6 as text series.
func WriteStrongScaling(w io.Writer, pts []StrongPoint) {
	fmt.Fprintf(w, "Figure 6: strong scaling, total time [s]\n")
	fmt.Fprintf(w, "%-8s %4s | %10s %10s | %10s %10s | %10s\n",
		"inst", "p", "fast[s]", "fastCut", "base[s]", "baseCut", "minimal[s]")
	for _, pt := range pts {
		bt, bc := "*", "*"
		if !pt.BaseFailed {
			bt = fmt.Sprintf("%.3f", pt.BaseTime.Seconds())
			bc = fmt.Sprintf("%d", pt.BaseCut)
		}
		min := ""
		if pt.HasMinimal {
			min = fmt.Sprintf("%.3f", pt.MinimalTime.Seconds())
		}
		fmt.Fprintf(w, "%-8s %4d | %10.3f %10d | %10s %10s | %10s\n",
			pt.Instance, pt.PEs, pt.FastTime.Seconds(), pt.FastCut, bt, bc, min)
	}
}

// ShrinkReport compares coarsening effectiveness of cluster contraction vs
// matching on one graph (the §V-B observation that one cluster-contraction
// step shrinks a web graph by orders of magnitude while matching halves it
// at best).
type ShrinkReport struct {
	Name          string
	N             int64
	ClusterLevels []int64
	MatchLevels   []int64
}

// RunShrink measures per-level graph sizes of both coarsening schemes: the
// first V-cycle's hierarchy of the fast configuration for class, and the
// matching baseline's, both as the partitioners build them for k = 2.
func RunShrink(name string, g *graph.Graph, P int, class core.GraphClass, seed uint64) ShrinkReport {
	rep := ShrinkReport{Name: name, N: int64(g.NumNodes())}
	levels := func(st core.Stats) []int64 {
		var ns []int64
		for _, lv := range st.Levels {
			ns = append(ns, lv.N)
		}
		return ns
	}
	ccfg := core.FastConfig(2, class)
	ccfg.Seed = seed
	if res, err := core.RunOn(context.Background(), mpi.NewWorld(P), g, ccfg); err == nil {
		rep.ClusterLevels = levels(res.Stats)
	}
	mcfg := matchbase.DefaultConfig(2)
	mcfg.Seed = seed
	if res, err := matchbase.RunCtx(context.Background(), P, g, mcfg); err == nil {
		rep.MatchLevels = levels(res.Stats)
	}
	return rep
}

// WriteShrink renders the coarsening-effectiveness comparison.
func WriteShrink(w io.Writer, reps []ShrinkReport) {
	fmt.Fprintf(w, "Coarsening effectiveness (graph size per level)\n")
	for _, r := range reps {
		fmt.Fprintf(w, "%-12s n=%d\n  cluster contraction: %v\n  heavy-edge matching: %v\n",
			r.Name, r.N, r.ClusterLevels, r.MatchLevels)
		if len(r.ClusterLevels) >= 2 {
			fmt.Fprintf(w, "  first-step shrink: cluster %.1fx", float64(r.ClusterLevels[0])/float64(r.ClusterLevels[1]))
			if len(r.MatchLevels) >= 2 {
				fmt.Fprintf(w, ", matching %.1fx", float64(r.MatchLevels[0])/float64(r.MatchLevels[1]))
			}
			fmt.Fprintln(w)
		}
	}
}
