package kaffpa

import (
	"repro/internal/graph"
	"repro/internal/intmath"
	"repro/internal/partition"
	"repro/internal/rng"
)

// growBisection grows block 0 from a random seed node by BFS until its
// weight reaches target0; remaining nodes form block 1. Disconnected
// leftovers restart from fresh seeds.
func growBisection(g *graph.Graph, target0 int64, r *rng.RNG) []int32 {
	n := g.NumNodes()
	p := make([]int32, n)
	for v := range p {
		p[v] = 1
	}
	visited := make([]bool, n)
	var w0 int64
	queue := make([]int32, 0, n)
	for w0 < target0 {
		// Find an unvisited seed (random probes, then linear fallback).
		seed := int32(-1)
		for tries := 0; tries < 10; tries++ {
			c := r.Int31n(n)
			if !visited[c] {
				seed = c
				break
			}
		}
		if seed < 0 {
			for v := int32(0); v < n; v++ {
				if !visited[v] {
					seed = v
					break
				}
			}
		}
		if seed < 0 {
			break // everything visited
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		for len(queue) > 0 && w0 < target0 {
			v := queue[0]
			queue = queue[1:]
			p[v] = 0
			w0 += g.NW[v]
			for _, u := range g.Neighbors(v) {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return p
}

// bisectionBounds returns, for a split of k blocks into k/2 and k-k/2, the
// weight block 0 is grown to and each side's FM bound: 1+eps times the
// side's share ⌊total·k_i/k⌋. Side 1 needs its own: at an odd split it is
// the heavier, and side 0's bound would shut it to every move.
func bisectionBounds(total int64, k int32, eps float64) (int64, []int64) {
	target0 := intmath.MulDivFloor(total, int64(k/2), int64(k))
	target1 := intmath.MulDivFloor(total, int64(k-k/2), int64(k))
	return target0, []int64{partition.ScaledBound(target0, eps), partition.ScaledBound(target1, eps)}
}

// recursiveBisect partitions g into k blocks by recursive bisection with
// greedy graph growing, the classic initial-partitioning scheme of
// multilevel partitioners. Block sizes are proportional to floor/ceil
// splits of k, so uneven k values are handled.
func recursiveBisect(g *graph.Graph, k int32, eps float64, r *rng.RNG) []int32 {
	p := make([]int32, g.NumNodes())
	bisectInto(g, k, eps, r, p, 0)
	return p
}

// bisectInto writes a k-way partition of g into out (same node order as g)
// using block IDs firstBlock..firstBlock+k-1.
func bisectInto(g *graph.Graph, k int32, eps float64, r *rng.RNG, out []int32, firstBlock int32) {
	if k <= 1 {
		for v := range out {
			out[v] = firstBlock
		}
		return
	}
	k0 := k / 2
	k1 := k - k0
	target0, lmax := bisectionBounds(g.TotalNodeWeight(), k, eps)
	p2 := growBisection(g, target0, r)
	fmRefine(g, p2, lmax, 8, r.Uint64()) // polish the grown bisection
	var n1 int
	for _, b := range p2 {
		n1 += int(b)
	}
	nodes0 := make([]graph.NodeID, 0, len(p2)-n1)
	nodes1 := make([]graph.NodeID, 0, n1)
	for v := int32(0); v < g.NumNodes(); v++ {
		if p2[v] == 0 {
			nodes0 = append(nodes0, v)
		} else {
			nodes1 = append(nodes1, v)
		}
	}
	sub0, back0 := graph.InducedSubgraph(g, nodes0)
	sub1, back1 := graph.InducedSubgraph(g, nodes1)
	out0 := make([]int32, sub0.NumNodes())
	out1 := make([]int32, sub1.NumNodes())
	bisectInto(sub0, k0, eps, r, out0, firstBlock)
	bisectInto(sub1, k1, eps, r, out1, firstBlock+k0)
	for i, v := range back0 {
		out[v] = out0[i]
	}
	for i, v := range back1 {
		out[v] = out1[i]
	}
}

// initialPartition computes a k-way partition of the (coarsest) graph:
// tries independent recursive-bisection attempts and keeps the best by
// (feasible, cut) lexicographic order.
func initialPartition(g *graph.Graph, k int32, eps float64, tries int, r *rng.RNG) partition.Partition {
	lmax := uniformBounds(k, partition.Lmax(g.TotalNodeWeight(), k, eps))
	var best partition.Partition
	var bestCut int64
	bestFeasible := false
	for t := 0; t < tries; t++ {
		p := recursiveBisect(g, k, eps, r)
		fmRefine(g, p, lmax, 4, r.Uint64())
		cut := partition.EdgeCut(g, p)
		feas := partition.IsFeasible(g, p, k, eps)
		if best == nil || feas && !bestFeasible || feas == bestFeasible && cut < bestCut {
			best, bestCut, bestFeasible = p, cut, feas
		}
	}
	return best
}
