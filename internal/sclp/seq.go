// Package sclp implements size-constrained label propagation (§III-A of
// the paper), sequentially and in parallel over a distributed graph.
//
// Label propagation starts with every node in its own cluster and
// repeatedly moves each node to the eligible neighbouring cluster with the
// strongest edge connection, breaking ties randomly. A cluster is eligible
// when moving the node keeps its weight within the upper bound U. With
// U = Lmax/f the algorithm computes the clusterings contracted during
// coarsening; with U = Lmax it doubles as the local search used during
// uncoarsening, where nodes of overloaded blocks are forced to move out.
package sclp

import (
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/rng"
)

// ClusterConfig controls the sequential clustering run.
type ClusterConfig struct {
	// U is the upper bound on cluster weight (paper: max(max_v c(v), W)).
	U int64
	// Iterations is the number of label propagation rounds (paper: ell).
	Iterations int
	// DegreeOrder traverses nodes in ascending-degree order in the first
	// round (paper §III-A); later rounds use random order.
	DegreeOrder bool
	// Constraint, when non-nil, restricts clusters to stay within one
	// block of a reference partition: a node may only join clusters whose
	// members share its constraint label. This realizes the V-cycle rule
	// that "each cluster of the computed clustering is a subset of a block
	// of the input partition" (§IV-D), which keeps cut edges uncontracted.
	//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
	Constraint []int32
	// Seed drives traversal order and tie breaking.
	Seed uint64
}

// Cluster runs size-constrained label propagation and returns a cluster
// label per node. Labels are drawn from the node ID space (a cluster's
// label is the ID of one of its members); they are not contiguous. After
// the last round the degree-0 nodes are packed (packIsolated).
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func Cluster(g *graph.Graph, cfg ClusterConfig) []int32 {
	n := g.NumNodes()
	labels := make([]int32, n)
	for v := int32(0); v < n; v++ {
		labels[v] = v
	}
	if n == 0 || cfg.Iterations <= 0 {
		return labels
	}
	// Every label is a node ID, so cluster weights are indexed by it.
	weight := slices.Clone(g.NW[:n])
	r := rng.New(cfg.Seed)
	conn := hashtab.NewAccumulatorI64(int(g.MaxDegree()))
	var order []int32
	if cfg.DegreeOrder {
		order = graph.DegreeOrder(g)
	} else {
		order = r.Perm(int(n))
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		if iter > 0 {
			r.Shuffle(int(n), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		moved := 0
		for _, v := range order {
			if moveNode(g, v, labels, weight, cfg.Constraint, cfg.U, conn, r) {
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	packIsolated(g.XAdj, g.NW, labels, cfg.Constraint, weight, cfg.U)
	return labels
}

// moveNode evaluates node v and moves it to the strongest eligible cluster.
// It reports whether the label changed.
//
//parhip:hotpath
func moveNode(g *graph.Graph, v int32, labels []int32, weight []int64,
	constraint []int32, u int64, conn *hashtab.AccumulatorI64, r *rng.RNG) bool {

	if !gatherLabels(conn, g.Neighbors(v), g.EdgeWeights(v), labels, constraint, v) {
		return false
	}
	best := selectCluster(conn, int64(labels[v]), g.NW[v], u, weight, r)
	if best < 0 {
		return false
	}
	weight[labels[v]] -= g.NW[v]
	weight[best] += g.NW[v]
	labels[v] = int32(best)
	return true
}

// RefineConfig controls the sequential refinement run.
type RefineConfig struct {
	// K is the number of blocks.
	K int32
	// Lmax is the tight balance bound (1+eps)*ceil(c(V)/k).
	Lmax int64
	// Iterations is the number of refinement rounds (paper: r, default 6).
	Iterations int
	// Seed drives traversal order and tie breaking.
	Seed uint64
}

// Refine improves partition p in place using label propagation with the
// balance constraint of the partitioning problem (§III-A, last paragraph):
// a node of a non-overloaded block moves only to an eligible block with
// connection at least as strong as its own block's (so the cut never
// increases); a node of an overloaded block moves to its strongest eligible
// other block regardless, trading cut for balance. Returns the number of
// moves performed.
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func Refine(g *graph.Graph, p []int32, cfg RefineConfig) int {
	n := g.NumNodes()
	if n == 0 || cfg.Iterations <= 0 {
		return 0
	}
	weight := make([]int64, cfg.K)
	for v := int32(0); v < n; v++ {
		weight[p[v]] += g.NW[v]
	}
	headroom := make([]int64, cfg.K)
	for b := range headroom {
		headroom[b] = math.MaxInt64
	}
	r := rng.New(cfg.Seed)
	conn := hashtab.NewDenseAccumulator(int(cfg.K))
	order := r.Perm(int(n))
	totalMoves := 0
	for iter := 0; iter < cfg.Iterations; iter++ {
		if iter > 0 {
			r.Shuffle(int(n), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		moved := 0
		for _, v := range order {
			if refineNode(g, v, p, weight, headroom, cfg.Lmax, conn, r) {
				moved++
			}
		}
		totalMoves += moved
		if moved == 0 {
			break
		}
	}
	return totalMoves
}

// refineNode is the sequential refinement step: the parallel selection with
// no previous partition and no headroom shares to respect (headroom holds
// "unlimited" for every block).
//
//parhip:hotpath
func refineNode(g *graph.Graph, v int32, p []int32, weight, headroom []int64,
	lmax int64, conn *hashtab.DenseAccumulator, r *rng.RNG) bool {

	cur := int64(p[v])
	if !GatherBlocks(conn, g.Neighbors(v), g.EdgeWeights(v), p, v, weight[cur] > lmax) {
		return false
	}
	best := selectRefine(conn, cur, g.NW[v], -1, weight, headroom, lmax, r)
	if best < 0 {
		return false
	}
	weight[cur] -= g.NW[v]
	weight[best] += g.NW[v]
	p[v] = int32(best)
	return true
}
