// Command bench regenerates the paper's tables and figures at reduced
// scale and checks that they show the paper's shape (see DESIGN.md §4 for
// the experiment index; performance is measured by benchmark/run.sh).
//
//	bench -table1          benchmark-set properties (Table I analogue)
//	bench -table2          k=2 quality/time comparison (Table II)
//	bench -table3          k=32 quality/time comparison (Table III)
//	bench -fig5            weak scaling on rgg/delaunay (Figure 5)
//	bench -fig6            strong scaling incl. web instance (Figure 6)
//	bench -shrink          coarsening effectiveness (§V-B observation)
//	bench -all             everything
//
// Flags -scale, -pes, -reps tune the workload size. The tables exit
// non-zero when exp.CheckShape fails: a ParHIP row infeasible, fast worse
// than the baseline, or eco worse than fast.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
)

func main() {
	var (
		table1 = flag.Bool("table1", false, "print benchmark-set properties (Table I)")
		table2 = flag.Bool("table2", false, "run the k=2 comparison (Table II)")
		table3 = flag.Bool("table3", false, "run the k=32 comparison (Table III)")
		fig5   = flag.Bool("fig5", false, "run the weak-scaling experiment (Figure 5)")
		fig6   = flag.Bool("fig6", false, "run the strong-scaling experiment (Figure 6)")
		shrink = flag.Bool("shrink", false, "run the coarsening-effectiveness experiment")
		all    = flag.Bool("all", false, "run everything")
		scale  = flag.Int("scale", 1, "instance size multiplier")
		pes    = flag.Int("pes", 4, "simulated PEs for the tables")
		reps   = flag.Int("reps", 3, "repetitions per configuration")
		maxP   = flag.Int("maxp", maxPdefault(), "largest PE count for scaling runs")
	)
	flag.Parse()
	if !(*all || *table1 || *table2 || *table3 || *fig5 || *fig6 || *shrink) {
		flag.Usage()
		os.Exit(2)
	}
	w := os.Stdout
	shapeOK := true
	table := func(title string, k int32) {
		rows := exp.RunTable(exp.TableOptions{K: k, PEs: *pes, Reps: *reps, Scale: int32(*scale), BudgetDivisor: 6})
		exp.WriteTable(w, title, rows)
		fmt.Fprintln(w)
		if err := exp.CheckShape(rows); err != nil {
			fmt.Fprintf(os.Stderr, "bench: k=%d shape check failed:\n%v\n", k, err)
			shapeOK = false
		}
	}

	if *all || *table1 {
		fmt.Fprintln(w, "Table I (analogue): benchmark set properties")
		fmt.Fprintf(w, "%-12s %-4s %9s %10s\n", "graph", "type", "n", "m")
		for _, inst := range exp.BenchmarkSet(int32(*scale)) {
			g := inst.Gen(42)
			fmt.Fprintf(w, "%-12s %-4s %9d %10d\n", inst.Name, inst.Type, g.NumNodes(), g.NumEdges())
		}
		fmt.Fprintln(w)
	}
	if *all || *table2 {
		table("Table II (analogue): k=2, avg/best cut and time", 2)
	}
	if *all || *table3 {
		table("Table III (analogue): k=32, avg/best cut and time", 32)
	}
	if *all || *fig5 {
		exp.WriteWeakScaling(w, exp.RunWeakScaling(peList(*maxP), int32(4096**scale), 16, 1))
		fmt.Fprintln(w)
	}
	if *all || *fig6 {
		exp.WriteStrongScaling(w, exp.RunStrongScaling(exp.DefaultStrongInstances(int32(*scale)), peList(*maxP), 16, 1))
		fmt.Fprintln(w)
	}
	if *all || *shrink {
		web, _ := gen.PlantedPartition(int32(20000**scale), 100, 10, 0.4, 1)
		mesh := gen.DelaunayLike(int32(16000**scale), 1)
		exp.WriteShrink(w, []exp.ShrinkReport{
			exp.RunShrink("web-comm", web, *pes, core.ClassSocial, 1),
			exp.RunShrink("delaunay", mesh, *pes, core.ClassMesh, 1),
		})
	}
	if !shapeOK {
		os.Exit(1)
	}
}

func maxPdefault() int {
	p := runtime.NumCPU()
	if p > 8 {
		p = 8
	}
	if p < 2 {
		p = 2
	}
	return p
}

func peList(maxP int) []int {
	var out []int
	for p := 1; p <= maxP; p *= 2 {
		out = append(out, p)
	}
	return out
}
