// Package kaffpa implements the sequential multilevel partitioner that
// plays the role of KaFFPa (§II-C) in the reproduction: cluster-contraction
// coarsening via size-constrained label propagation, initial partitioning
// by recursive bisection with greedy graph growing, and refinement by label
// propagation plus FM-style local search.
//
// It is used in three places: to create the individuals of the evolutionary
// algorithm's initial population, as the engine of KaFFPaE's combine
// operation (with the parents' cut edges forbidden from contraction), and
// standalone as a reference sequential partitioner.
package kaffpa

import (
	"fmt"

	"repro/internal/contract"
	"repro/internal/graph"
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
)

// Config holds the parameters of a multilevel run. The zero value is not
// usable; fill in K and call Normalize, or use DefaultConfig.
type Config struct {
	K   int32   // number of blocks
	Eps float64 // imbalance parameter (paper default 0.03)

	// SizeFactor is f in U = max(max_v c(v), Lmax/f) during coarsening.
	SizeFactor float64
	// RefineIters is the label propagation iteration count during
	// uncoarsening (paper default: 6).
	RefineIters int
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
		SizeFactor:   14,
		RefineIters:  6,
		CoarsestSize: 0, // derived from K in Normalize
		Seed:         1,
	}
}

// Normalize fills derived defaults in place.
func (c *Config) Normalize() {
	if c.Eps <= 0 {
		c.Eps = 0.03
	}
	if c.SizeFactor <= 0 {
		c.SizeFactor = 14
	}
	if c.RefineIters <= 0 {
		c.RefineIters = 6
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
	g            *graph.Graph
	fineToCoarse []int32 // maps this level's nodes to the next-coarser level
}

// Partition computes a k-way partition of g. It returns an error for
// invalid configurations; the partition is feasible whenever a feasible
// partition is reachable by the refinement moves (on pathological inputs
// with giant node weights the bound may be unattainable).
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
	r := rng.New(cfg.Seed)
	total := g.TotalNodeWeight()
	lmax := partition.Lmax(total, cfg.K, cfg.Eps)

	// Coarsening phase: size-constrained label propagation + contraction.
	u := int64(float64(lmax) / cfg.SizeFactor)
	if mw := g.MaxNodeWeight(); u < mw {
		u = mw
	}
	cur := g
	constraint := cfg.Constraint
	initPart := cfg.InitialPartition
	var levels []level
	for cur.NumNodes() > cfg.CoarsestSize {
		labels := sclp.Cluster(cur, sclp.ClusterConfig{
			U:           u,
			Iterations:  coarsenIters,
			DegreeOrder: true,
			Constraint:  constraint,
			Seed:        r.Uint64(),
		})
		cg, f2c := contract.Contract(cur, labels)
		if cg.NumNodes() >= cur.NumNodes()*19/20 {
			break // coarsening stalled
		}
		levels = append(levels, level{g: cur, fineToCoarse: f2c})
		if constraint != nil {
			constraint = projectDown(constraint, f2c, cg.NumNodes())
		}
		if initPart != nil {
			initPart = projectDown(initPart, f2c, cg.NumNodes())
		}
		cur = cg
	}

	// Initial partitioning of the coarsest graph.
	bounds := uniformBounds(cfg.K, lmax)
	var p []int32
	if initPart != nil {
		p = append([]int32(nil), initPart...)
		// The inherited partition is already feasible on the coarsest graph
		// (same cut and balance as on the finest level); refine it.
		fmRefine(cur, p, bounds, fmRounds, r.Uint64())
	} else {
		p = initialPartition(cur, cfg.K, cfg.Eps, initialTries, r)
	}
	sclp.Refine(cur, p, sclp.RefineConfig{K: cfg.K, Lmax: lmax, Iterations: cfg.RefineIters, Seed: r.Uint64()})

	// Uncoarsening: project and locally improve at every level.
	for i := len(levels) - 1; i >= 0; i-- {
		p = contract.Project(p, levels[i].fineToCoarse)
		sclp.Refine(levels[i].g, p, sclp.RefineConfig{K: cfg.K, Lmax: lmax, Iterations: cfg.RefineIters, Seed: r.Uint64()})
		fmRefine(levels[i].g, p, bounds, fmRounds, r.Uint64())
	}
	return p, nil
}

// projectDown maps per-fine-node labels to the coarse level. Each cluster
// must be label-homogeneous (guaranteed when the labels were used as the
// clustering constraint); the representative member's label is taken.
func projectDown(labels []int32, fineToCoarse []int32, coarseN int32) []int32 {
	out := make([]int32, coarseN)
	seen := make([]bool, coarseN)
	for v, c := range fineToCoarse {
		if !seen[c] {
			out[c] = labels[v]
			seen[c] = true
		}
	}
	return out
}

// CompositeConstraint builds the constraint labels for a combine operation:
// nodes get equal labels iff they share a block in both parents, so no cut
// edge of either parent can be contracted (§II-C).
//
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func CompositeConstraint(p1, p2 []int32, k int32) []int32 {
	out := make([]int32, len(p1))
	for v := range p1 {
		out[v] = p1[v]*k + p2[v]
	}
	return out
}
