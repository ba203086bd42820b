package main

import (
	"context"
	"fmt"
	"time"
)

// The layer walk: after the timed reps the benchmark walks the pipeline
// once itself, on the workload's world type, with a span around every call
// into a layer. It follows DESIGN.md's pipeline (stage order, V-cycle
// count, pool, arena) but is not a bit-exact replay of core: its result
// only has to be feasible with a cut near the timed one, so later pipeline
// changes do not break it. core.walk_ratio says whether it still
// represents the program.

type walkSpec struct {
	k    int32
	pes  int
	mesh bool
	tcp  bool
	seed uint64
	prev []int32 // previous partition for the warm (repartition) walk
}

type walkResult struct {
	totalS       float64
	layerS       map[string]float64 // summed self time per span name, rank 0
	cut          int64
	feasible     bool
	supersteps   int64
	shrinkL1     float64 // N1/N0 of the first V-cycle
	coarsestN    int64
	coarsestM    int64
	ghostFrac    float64
	syncGhostsUS float64
}

type walkLevel struct {
	fine, coarse *DGraph
	fineToCoarse []int64
	prevFine     []int64
}

func runWalk(ctx context.Context, g *Graph, s walkSpec, rec *recorder) (walkResult, error) {
	var out walkResult
	t0 := time.Now()
	err := runSPMD(s.pes, s.tcp, func(c *Comm) {
		r := walkRank(ctx, c, g, s, rec)
		if rankOf(c) == 0 {
			out = r
		}
	})
	if err != nil {
		return out, fmt.Errorf("walk world: %w", err)
	}
	out.totalS = time.Since(t0).Seconds() - out.syncGhostsUS*syncGhostReps/1e6
	out.layerS = rec.selfSeconds(0)
	return out, nil
}

const syncGhostReps = 50

func walkRank(ctx context.Context, c *Comm, g *Graph, s walkSpec, rec *recorder) walkResult {
	rank := rankOf(c)
	var res walkResult
	root := rec.begin(rank, "walk", -1)
	span := func(name string, fn func()) { rec.call(rank, root, name, fn) }

	var d *DGraph
	span("dgraph.distribute", func() { d = distribute(c, g) })
	res.ghostFrac = ghostFraction(d)
	sc := newScratch(c)
	defer sc.close()

	shared := newSharedRNG(s.seed)
	lmax := lmaxOf(totalNodeWeight(d), s.k)
	coarsestLimit := int64(walkCoarsestPerBlock) * int64(s.k)
	if coarsestLimit < walkMinCoarsest {
		coarsestLimit = walkMinCoarsest
	}
	maxNW := maxNodeWeight(d)

	prevFine := toLocal(d, s.prev) // migration reference on the finest level
	part := prevFine               // current solution on the finest level; replaced, never written
	for cycle := 0; cycle < walkVCycles; cycle++ {
		f := sizeFactor(s.mesh)
		if cycle > 0 {
			f = shared.laterCycleFactor()
		}
		u := int64(float64(lmax) / f)
		if u < maxNW {
			u = maxNW
		}

		// Coarsening: cluster, contract, lift the constraint (and, on the
		// warm path, the migration reference) level by level.
		cur, constraint, prevCur := d, part, prevFine
		// In the first cycle of a warm walk the constraint is the previous
		// partition, so one lift serves both.
		shareLift := cycle == 0 && s.prev != nil
		var levels []walkLevel
		for globalN(cur) > coarsestLimit {
			var labels, fineToCoarse []int64
			var coarse *DGraph
			seed := shared.next()
			span("sclp.cluster", func() { labels = cluster(cur, u, constraint, seed, sc) })
			span("contract.contract", func() { coarse, fineToCoarse = contractLevel(cur, labels, sc) })
			sc.reset()
			if cycle == 0 && len(levels) == 0 {
				res.shrinkL1 = float64(globalN(coarse)) / float64(globalN(cur))
			}
			if globalN(coarse) >= globalN(cur)*19/20 {
				break // coarsening stalled
			}
			if constraint != nil {
				span("contract.lift", func() { constraint = lift(cur, coarse, fineToCoarse, constraint) })
			}
			lv := walkLevel{fine: cur, coarse: coarse, fineToCoarse: fineToCoarse}
			if prevCur != nil {
				lv.prevFine = prevCur
				if shareLift {
					prevCur = constraint
				} else {
					span("contract.lift", func() { prevCur = lift(cur, coarse, fineToCoarse, prevCur) })
				}
			}
			levels = append(levels, lv)
			cur = coarse
		}

		// Initial partitioning of the replicated coarsest graph.
		var coarsest *Graph
		var initial, migrationRef, best []int32
		span("dgraph.gather", func() {
			coarsest = gatherGraph(cur)
			if constraint != nil {
				initial = gatherAssignment(cur, constraint)
			}
			switch {
			case prevCur == nil:
			case shareLift:
				migrationRef = initial
			default:
				migrationRef = gatherAssignment(cur, prevCur)
			}
		})
		if cycle == 0 {
			res.coarsestN, res.coarsestM = graphSize(coarsest)
		}
		seed := shared.next()
		span("evo.evolve", func() { best = evolve(ctx, c, coarsest, s.k, seed, initial, migrationRef) })

		// Uncoarsening: refine the coarsest level, then project and refine
		// level by level.
		curPart := toLocal(cur, best)
		seed = shared.next()
		span("sclp.refine", func() { refine(cur, curPart, s.k, lmax, seed, prevCur, sc) })
		sc.reset()
		for i := len(levels) - 1; i >= 0; i-- {
			lv := levels[i]
			span("contract.project", func() { curPart = project(lv.fine, lv.coarse, lv.fineToCoarse, curPart) })
			seed = shared.next()
			span("sclp.refine", func() { refine(lv.fine, curPart, s.k, lmax, seed, lv.prevFine, sc) })
			sc.reset()
		}
		part = curPart
	}

	var mx int64
	span("dgraph.evaluate", func() { mx = maxBlockWeight(d, part, s.k) })
	if mx > lmax {
		span("sclp.rebalance", func() { rebalance(d, part, s.k, lmax) })
		mx = maxBlockWeight(d, part, s.k)
	}
	span("dgraph.evaluate", func() { res.cut = distEdgeCut(d, part) })
	res.feasible = mx <= lmax
	res.supersteps = sc.supersteps()
	rec.finish(root)

	// Substrate pass on the level-0 distributed graph: one full halo
	// exchange per call.
	vals := make([]int64, nTotal(d))
	t0 := time.Now()
	for i := 0; i < syncGhostReps; i++ {
		syncGhosts(d, vals)
	}
	res.syncGhostsUS = float64(time.Since(t0).Microseconds()) / syncGhostReps
	return res
}
