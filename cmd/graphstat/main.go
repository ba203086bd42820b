// Command graphstat reports structural statistics of a graph: size, degree
// distribution and connectivity — the quantities that predict whether
// matching-based or cluster-based coarsening will work on it.
//
//	graphstat -graph web.metis
//	graphstat -family rmat -n 100000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "METIS graph file")
		family    = flag.String("family", "", "generated family (see graphgen)")
		n         = flag.Int("n", 10000, "node count for generated graphs")
		seed      = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	var g *graph.Graph
	var err error
	switch {
	case *graphFile != "":
		f, ferr := os.Open(*graphFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "graphstat:", ferr)
			os.Exit(1)
		}
		g, err = graph.ReadMetis(f)
		f.Close()
	case *family != "":
		g, err = gen.ByFamily(gen.Family(*family), int32(*n), *seed)
	default:
		fmt.Fprintln(os.Stderr, "graphstat: need -graph or -family")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphstat:", err)
		os.Exit(1)
	}

	nn := g.NumNodes()
	fmt.Printf("n=%d m=%d totalNodeWeight=%d totalEdgeWeight=%d\n",
		nn, g.NumEdges(), g.TotalNodeWeight(), g.TotalEdgeWeight())

	degs := make([]int, nn)
	for v := int32(0); v < nn; v++ {
		degs[v] = int(g.Degree(v))
	}
	sort.Ints(degs)
	pct := func(p float64) int { return degs[int(float64(nn-1)*p)] }
	avg := float64(2*g.NumEdges()) / float64(nn)
	fmt.Printf("degree: min=%d p50=%d p90=%d p99=%d max=%d avg=%.2f\n",
		degs[0], pct(0.5), pct(0.9), pct(0.99), degs[nn-1], avg)
	// Heavy-tail indicator: max/median ratio.
	med := pct(0.5)
	if med > 0 {
		ratio := float64(degs[nn-1]) / float64(med)
		kind := "mesh-like (use -class mesh)"
		if ratio > 20 {
			kind = "complex network (use -class social)"
		}
		fmt.Printf("max/median degree = %.1f -> %s\n", ratio, kind)
	}

	comp, cnt := graph.ConnectedComponents(g)
	sizes := make(map[int32]int64)
	for _, c := range comp {
		sizes[c]++
	}
	var giant int64
	for _, s := range sizes {
		if s > giant {
			giant = s
		}
	}
	isolated := sort.SearchInts(degs, 1) // degs is sorted
	fmt.Printf("components=%d giant=%d (%.1f%%) isolated=%d (%.1f%%)\n", cnt, giant, 100*float64(giant)/float64(nn),
		isolated, 100*float64(isolated)/float64(nn))
}
