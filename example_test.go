package parhip_test

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/gen"
)

// twoCliques returns two 4-cliques joined by the single edge 3–4: the
// optimal bipartition cuts exactly that edge.
func twoCliques() *parhip.Graph {
	b := parhip.NewBuilder(8)
	for u := int32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v)
			b.AddEdge(u+4, v+4)
		}
	}
	b.AddEdge(3, 4)
	return b.Build()
}

// ExampleNew partitions two joined cliques with a session: a
// cancellable Partitioner constructed with functional options and run
// under a context.
func ExampleNew() {
	p, err := parhip.New(twoCliques(), parhip.WithK(2), parhip.WithPEs(2), parhip.WithSeed(1))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cut:", res.Cut)
	fmt.Println("feasible:", res.Feasible)
	fmt.Println("same block within clique 1:", res.Partition.Block(0) == res.Partition.Block(3))
	fmt.Println("same block within clique 2:", res.Partition.Block(4) == res.Partition.Block(7))
	fmt.Println("cliques separated:", res.Partition.Block(0) != res.Partition.Block(4))
	// Output:
	// cut: 1
	// feasible: true
	// same block within clique 1: true
	// same block within clique 2: true
	// cliques separated: true
}

// ExamplePartition wraps a raw assignment of the two joined cliques at
// the API boundary. Cut, block weights and feasibility come with the
// value; the boundary nodes are computed on demand.
func ExamplePartition() {
	g := twoCliques()
	p, err := parhip.NewPartition(g, []int32{0, 0, 0, 0, 1, 1, 1, 1}, 2, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("cut:", p.Cut(), "block weights:", p.BlockWeights(), "feasible:", p.Feasible())
	fmt.Println("boundary:", p.Boundary(g))
	// Output:
	// cut: 1 block weights: [4 4] feasible: true
	// boundary: [3 4]
}

// Example_grid partitions a 4x4 grid into two halves as a mesh.
func Example_grid() {
	const side = 4
	b := parhip.NewBuilder(side * side)
	id := func(r, c int32) int32 { return r*side + c }
	for r := int32(0); r < side; r++ {
		for c := int32(0); c < side; c++ {
			if c+1 < side {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < side {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	p, err := parhip.New(b.Build(), parhip.WithK(2), parhip.WithPEs(2),
		parhip.WithClass(parhip.Mesh), parhip.WithSeed(3))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := p.Run(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cut=%d imbalance=%.3f feasible=%v\n", res.Cut, res.Imbalance, res.Feasible)
	for r := int32(0); r < side; r++ {
		row := make([]int32, side)
		for c := range row {
			row[c] = res.Partition.Block(id(r, int32(c)))
		}
		fmt.Println(row)
	}
	// Output:
	// cut=6 imbalance=0.000 feasible=true
	// [0 0 0 0]
	// [0 0 0 1]
	// [0 1 1 1]
	// [1 1 1 1]
}

// Example_social partitions a preferential-attachment network for
// distributed graph processing — the paper's motivating application (§I:
// PageRank on k PEs wants k blocks of about equal size with few edges
// between them). It compares hash placement (node v on PE v mod k, the
// usual toolkit default, §II-B), the matching baseline and ParHIP by cut
// and by communication volume: the (node, foreign block) pairs one
// PageRank superstep sends.
func Example_social() {
	const n, k = 2000, 16
	g := gen.BarabasiAlbert(n, 6, 21)
	report := func(name string, p *parhip.Partition) {
		fmt.Printf("%-18s cut=%6d commvol=%6d feasible=%v\n",
			name, p.Cut(), p.CommunicationVolume(g), p.Feasible())
	}

	hash := make([]int32, n)
	for v := range hash {
		hash[v] = int32(v) % k
	}
	hp, err := parhip.NewPartition(g, hash, k, parhip.DefaultEps)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report("hash", hp)

	ctx := context.Background()
	opts := []parhip.Option{parhip.WithK(k), parhip.WithPEs(4), parhip.WithSeed(5)}
	bres, err := parhip.RunBaseline(ctx, g, 0, opts...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	report("matching-baseline", bres.Partition)
	for _, run := range []struct {
		name string
		mode parhip.Mode
	}{{"parhip-fast", parhip.Fast}, {"parhip-eco", parhip.Eco}} {
		p, err := parhip.New(g, append(opts, parhip.WithMode(run.mode))...)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		res, err := p.Run(ctx)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		report(run.name, res.Partition)
	}
	// Output:
	// hash               cut= 11226 commvol= 14067 feasible=true
	// matching-baseline  cut=  8521 commvol= 10919 feasible=true
	// parhip-fast        cut=  8460 commvol= 11390 feasible=true
	// parhip-eco         cut=  8261 commvol= 11293 feasible=true
}

// Example_webgraph is the paper's headline scenario: a web-like graph
// (community structure plus hub pages with a degree-one fringe) that
// cluster contraction shrinks far faster than matching. A progress
// callback reports each refined level; the matching baseline fails under
// a memory budget of n/6 coarsest nodes, like the "*" entries of Tables
// II/III where ParMETIS runs out of memory.
func Example_webgraph() {
	web := gen.WebCrawlLike(6000, 40, 10, 0.4, 60, 7)
	fmt.Printf("web graph: n=%d m=%d maxdeg=%d\n", web.NumNodes(), web.NumEdges(), web.MaxDegree())

	opts := []parhip.Option{parhip.WithK(8), parhip.WithPEs(4)}
	p, err := parhip.New(web, append(opts,
		parhip.WithProgressFunc(func(ev parhip.ProgressEvent) {
			if ev.Phase == "refine" {
				fmt.Printf("  cycle %d/%d refine level %d (n=%d): cut=%d\n", ev.Cycle+1, ev.Cycles, ev.Level, ev.N, ev.Cut)
			}
		}))...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ctx := context.Background()
	res, err := p.Run(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	hierarchy := func(r parhip.Result) []int64 {
		var ns []int64
		for _, lv := range r.Stats.Levels {
			ns = append(ns, lv.N)
		}
		return ns
	}
	fmt.Printf("ParHIP fast: cut=%d feasible=%v hierarchy=%v\n", res.Cut, res.Feasible, hierarchy(res))

	if _, err := parhip.RunBaseline(ctx, web, int64(web.NumNodes())/6, opts...); err != nil {
		fmt.Println("baseline with budget n/6:", err)
	}
	bres, err := parhip.RunBaseline(ctx, web, 0, opts...)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("baseline, unlimited: cut=%d hierarchy=%v\n", bres.Cut, hierarchy(bres))
	// Output:
	// web graph: n=6000 m=17501 maxdeg=74
	//   cycle 1/2 refine level 1 (n=333): cut=893
	//   cycle 1/2 refine level 0 (n=6000): cut=748
	//   cycle 2/2 refine level 1 (n=304): cut=748
	//   cycle 2/2 refine level 0 (n=6000): cut=748
	// ParHIP fast: cut=748 feasible=true hierarchy=[6000 333]
	// baseline with budget n/6: matchbase: coarsest graph exceeds the per-PE memory budget: 3056 nodes > budget 1000
	// baseline, unlimited: cut=1592 hierarchy=[6000 4671 3925 3487 3223 3056]
}

// Example_meshWeakScaling runs a small weak-scaling sweep (the paper's
// Figure 5 territory): the nodes per PE stay fixed while the PEs double,
// on a random geometric graph and a Delaunay-like mesh. Time per edge is
// what Figure 5 plots; cmd/bench -fig5 measures it.
func Example_meshWeakScaling() {
	const perPE, k = 2048, 16
	for _, fam := range []string{"rgg", "delaunay"} {
		for _, pes := range []int{1, 2} {
			n := int32(perPE * pes)
			g := gen.RGG(n, 3)
			if fam == "delaunay" {
				g = gen.DelaunayLike(n, 3)
			}
			p, err := parhip.New(g, parhip.WithK(k), parhip.WithPEs(pes),
				parhip.WithClass(parhip.Mesh), parhip.WithSeed(3))
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			res, err := p.Run(context.Background())
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("%-8s p=%d n=%5d m=%5d cut=%4d feasible=%v\n",
				fam, pes, g.NumNodes(), g.NumEdges(), res.Cut, res.Feasible)
		}
	}
	// Output:
	// rgg      p=1 n= 2048 m= 7220 cut= 359 feasible=true
	// rgg      p=2 n= 4096 m=15919 cut= 447 feasible=true
	// delaunay p=1 n= 2025 m= 5896 cut= 618 feasible=true
	// delaunay p=2 n= 4096 m=12033 cut= 881 feasible=true
}

// ExampleRepartition partitions a graph, lets it drift, and repartitions
// from the saved result: the new partition moves few nodes.
func ExampleRepartition() {
	g := gen.DelaunayLike(4000, 5)
	ctx := context.Background()
	p, err := parhip.New(g, parhip.WithK(4), parhip.WithPEs(2), parhip.WithClass(parhip.Mesh))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	first, err := p.Run(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// Drift: every 50th node gains an edge to a node 1000 further on.
	b := parhip.NewBuilder(g.NumNodes())
	for u := int32(0); u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddEdge(u, v)
			}
		}
		if u%50 == 0 {
			b.AddEdge(u, (u+1000)%g.NumNodes())
		}
	}
	g2 := b.Build()

	warm, err := parhip.Repartition(ctx, g2, first.Partition, parhip.WithPEs(2), parhip.WithClass(parhip.Mesh))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	plan, err := warm.Partition.MigrationPlan(first.Partition)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("cut %d -> %d, feasible=%v, moved %d of %d nodes\n",
		first.Cut, warm.Cut, warm.Feasible, plan.MigratedNodes, plan.TotalNodes)
	// Output:
	// cut 287 -> 324, feasible=true, moved 34 of 3969 nodes
}
