// Package kaffpa implements the sequential multilevel partitioner that
// plays the role of KaFFPa (§II-C) in the reproduction: cluster-contraction
// coarsening via size-constrained label propagation, initial partitioning
// by recursive bisection with greedy graph growing, and refinement by label
// propagation plus FM-style local search. Coarsening, contraction and label
// propagation refinement are the distributed kernels of sclp and contract,
// run on a one-rank world.
//
// It is used in three places: to create the individuals of the evolutionary
// algorithm's initial population, as the engine of KaFFPaE's combine
// operation (with the parents' cut edges forbidden from contraction), and
// standalone as a reference sequential partitioner.
package kaffpa

import (
	"fmt"

	"repro/internal/contract"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sclp"
)

const (
	// coarsenIters is the label propagation iteration count during
	// coarsening (paper default, §V-A).
	coarsenIters = 3
	// fmRounds bounds the FM refinement rounds per level.
	fmRounds = 3
	// initialTries is the number of independent initial partitioning
	// attempts on the coarsest graph.
	initialTries = 4
	// sizeFactor is f in U = max(max_v c(v), Lmax/f) during coarsening.
	sizeFactor = 14
	// refineIters is the label propagation iteration count during
	// uncoarsening (paper default: 6).
	refineIters = 6
)

// Config holds the parameters of a multilevel run. The zero value is not
// usable; fill in K and call Normalize, or use DefaultConfig.
type Config struct {
	K   int32   // number of blocks
	Eps float64 // imbalance parameter (paper default 0.03)

	// CoarsestSize stops coarsening once n <= max(CoarsestSize, 2K).
	CoarsestSize int32
	// Seed drives all randomness in the run.
	Seed uint64

	// Constraint, when non-nil, forbids contraction across its labels:
	// every cluster stays inside one constraint class, so edges between
	// classes survive to the coarsest level. The combine operator passes
	// the composite labels of two parent partitions here (§II-C).
	//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
	Constraint []int32
	// InitialPartition, when non-nil, is applied at the coarsest level
	// instead of running initial partitioning. It must be constant on each
	// constraint class (callers pass a parent partition together with a
	// Constraint that refines it).
	//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
	InitialPartition []int32
}

// DefaultConfig returns the paper's defaults for a k-way partition.
func DefaultConfig(k int32) Config {
	return Config{
		K:            k,
		Eps:          0.03,
		CoarsestSize: 0, // derived from K in Normalize
		Seed:         1,
	}
}

// Normalize fills derived defaults in place.
func (c *Config) Normalize() {
	if c.Eps <= 0 {
		c.Eps = 0.03
	}
	if c.CoarsestSize <= 0 {
		c.CoarsestSize = 20 * c.K
		if c.CoarsestSize < 60 {
			c.CoarsestSize = 60
		}
	}
}

// level records one step of the multilevel hierarchy.
type level struct {
	fine, coarse *dgraph.DGraph
	fineToCoarse []int64 // maps fine's nodes to coarse's
}

// Partition computes a k-way partition of g. It returns an error for
// invalid configurations; the partition is feasible whenever a feasible
// partition is reachable by the refinement moves (on pathological inputs
// with giant node weights the bound may be unattainable).
//
// The levels are distributed graphs over a one-rank world, and the parallel
// kernels coarsen, contract and refine them. One rank has no ghosts, so a
// level's local IDs are its node IDs, and initial partitioning and FM read
// the level through a zero-copy view (levelView).
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func Partition(g *graph.Graph, cfg Config) ([]int32, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("kaffpa: k = %d", cfg.K)
	}
	if cfg.Constraint != nil && int32(len(cfg.Constraint)) != g.NumNodes() {
		return nil, fmt.Errorf("kaffpa: constraint has %d entries for %d nodes", len(cfg.Constraint), g.NumNodes())
	}
	if cfg.InitialPartition != nil && int32(len(cfg.InitialPartition)) != g.NumNodes() {
		return nil, fmt.Errorf("kaffpa: initial partition has %d entries for %d nodes", len(cfg.InitialPartition), g.NumNodes())
	}
	cfg.Normalize()
	if cfg.K == 1 {
		return make([]int32, g.NumNodes()), nil
	}
	if g.NumNodes() == 0 {
		return []int32{}, nil
	}
	p := make([]int32, g.NumNodes())
	world := mpi.NewWorld(1)
	defer world.Close()
	world.Run(func(c *mpi.Comm) { multilevel(dgraph.FromGraph(c, g), cfg, p) })
	return p, nil
}

// multilevel runs the V-cycle on the one-rank level d and writes the
// partition into out (one entry per node).
func multilevel(d *dgraph.DGraph, cfg Config, out []int32) {
	r := rng.New(cfg.Seed)
	lmax := partition.Lmax(d.GlobalNodeWeight(), cfg.K, cfg.Eps)

	// Coarsening phase: size-constrained label propagation + contraction.
	u := max(int64(float64(lmax)/sizeFactor), d.MaxNodeWeightGlobal())
	cur := d
	constraint := widen(cfg.Constraint)
	initPart := widen(cfg.InitialPartition)
	var levels []level
	for cur.GlobalN > int64(cfg.CoarsestSize) {
		labels := sclp.ParCluster(cur, sclp.ParClusterConfig{
			U:              u,
			Iterations:     coarsenIters,
			DegreeOrder:    true,
			PhasesPerRound: 1,
			Constraint:     constraint,
			Seed:           r.Uint64(),
		})
		res := contract.ParContract(cur, labels)
		if res.Coarse.GlobalN >= cur.GlobalN*19/20 {
			break // coarsening stalled
		}
		levels = append(levels, level{fine: cur, coarse: res.Coarse, fineToCoarse: res.FineToCoarse})
		if constraint != nil {
			constraint = contract.ParLift(cur, res.Coarse, res.FineToCoarse, constraint)
		}
		if initPart != nil {
			initPart = contract.ParLift(cur, res.Coarse, res.FineToCoarse, initPart)
		}
		cur = res.Coarse
	}

	// p is the current level's partition. FM works on an int32 copy of it
	// in a prefix of out: levels only grow towards the finest, whose copy
	// is out itself.
	var p []int64
	bounds := uniformBounds(cfg.K, lmax)
	fm := func(d *dgraph.DGraph) {
		q := out[:d.NLocal()]
		for v := range q {
			q[v] = int32(p[v])
		}
		fmRefine(levelView(d), q, bounds, fmRounds, r.Uint64())
		for v, b := range q {
			p[v] = int64(b)
		}
	}
	refine := func(d *dgraph.DGraph) {
		sclp.ParRefine(d, p, sclp.ParRefineConfig{
			K: cfg.K, Lmax: lmax, Iterations: refineIters, PhasesPerRound: 1, Seed: r.Uint64(),
		})
	}

	// Initial partitioning of the coarsest graph.
	if initPart != nil {
		// The inherited partition is already feasible on the coarsest graph
		// (same cut and balance as on the finest level); refine it.
		p = initPart
		fm(cur)
	} else {
		p = widen(initialPartition(levelView(cur), cfg.K, cfg.Eps, initialTries, r))
	}
	refine(cur)

	// Uncoarsening: project and locally improve at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		p = contract.ParProject(lv.fine, lv.coarse, lv.fineToCoarse, p)
		refine(lv.fine)
		fm(lv.fine)
	}
	for v := range out {
		out[v] = int32(p[v])
	}
}

// levelView is the one-rank level d as a graph, sharing d's arrays.
func levelView(d *dgraph.DGraph) *graph.Graph {
	return graph.FromCSR(d.XAdj, d.Adj, d.AdjW, d.NW[:d.NLocal()])
}

// widen returns labels as int64s, or nil for nil.
func widen(labels []int32) []int64 {
	if labels == nil {
		return nil
	}
	out := make([]int64, len(labels))
	for v, l := range labels {
		out[v] = int64(l)
	}
	return out
}

// CompositeConstraint builds the constraint labels for a combine operation:
// nodes get equal labels iff they share a block in both parents, so no cut
// edge of either parent can be contracted (§II-C). The distinct (p1, p2)
// pairs are numbered densely in first-seen order, so every label is below n
// at any k.
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func CompositeConstraint(p1, p2 []int32, k int32) []int32 {
	out := make([]int32, len(p1))
	ids := hashtab.NewMapI64(64)
	for v := range p1 {
		id, _ := ids.PutIfAbsent(int64(p1[v])*int64(k)+int64(p2[v]), int64(ids.Len()))
		out[v] = int32(id)
	}
	return out
}
