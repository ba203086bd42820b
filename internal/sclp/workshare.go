package sclp

import (
	"time"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/hashtab"
	"repro/internal/rng"
	"repro/internal/workpool"
)

// proposeChunk is the number of traversal-order nodes one propose chunk
// covers. A phase's chunk count is derived from its length alone — never
// from the worker count — so the per-chunk RNG streams, and with them the
// proposals, are bit-identical for any pool size.
const proposeChunk = 256

// ParStats aggregates one rank's superstep measurements. Clustering is one
// sequential sweep per superstep and books its time to CommitNS;
// refinement splits a superstep into a parallel propose pass and a
// sequential commit pass, so ProposeNS and BusyNS (the summed busy time of
// the worker lanes) cover refinement only, and BusyNS / (ProposeNS *
// Workers) is the refinement propose-pass utilization. Evaluated and
// Interior are exact work counts, not timings: identical for any worker
// count and from run to run.
type ParStats struct {
	Workers    int
	Supersteps int64
	ProposeNS  int64 // wall time of refinement's parallel propose passes
	CommitNS   int64 // wall time of the sequential passes: clustering sweeps, refinement commits
	BusyNS     int64 // summed per-lane busy time inside propose passes
	// Evaluated counts the node evaluations of the sweeps and of the
	// propose and commit passes; Interior is how many of them returned
	// "stay" from the neighbour scan alone, before any rating was
	// accumulated.
	Evaluated int64
	Interior  int64
}

// Add accumulates o into s; Workers adopts o's value when set.
func (s *ParStats) Add(o ParStats) {
	if o.Workers > 0 {
		s.Workers = o.Workers
	}
	s.Supersteps += o.Supersteps
	s.ProposeNS += o.ProposeNS
	s.CommitNS += o.CommitNS
	s.BusyNS += o.BusyNS
	s.Evaluated += o.Evaluated
	s.Interior += o.Interior
}

// Utilization returns the mean fraction of propose wall time the worker
// lanes spent busy, in [0, 1]; 0 when nothing was measured.
func (s *ParStats) Utilization() float64 {
	if s == nil || s.Workers <= 0 || s.ProposeNS <= 0 {
		return 0
	}
	u := float64(s.BusyNS) / (float64(s.ProposeNS) * float64(s.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// observe folds one superstep's measurements into s; like Add, it adopts
// workers only when set (a clustering sweep has none to report). Nil-safe.
func (s *ParStats) observe(workers int, propose, commit, busy time.Duration) {
	if s == nil {
		return
	}
	if workers > 0 {
		s.Workers = workers
	}
	s.Supersteps++
	s.ProposeNS += int64(propose)
	s.CommitNS += int64(commit)
	s.BusyNS += int64(busy)
}

// count folds the lanes' work counters into s. Called once per kernel run,
// after the last pool.Run: a sum over lanes does not depend on which lane
// evaluated which chunk. Nil-safe.
func (s *ParStats) count(lanes ...lane) {
	if s == nil {
		return
	}
	for i := range lanes {
		s.Evaluated += lanes[i].evaluated
		s.Interior += lanes[i].interior
	}
}

// lane is the scratch of one evaluating goroutine — the clustering sweep, a
// refinement propose worker, or the refinement commit pass: a rating
// accumulator (label-keyed for clustering, block-keyed for refinement), a
// generator reseeded at every phase or chunk boundary, and the work
// counters. Propose lanes are indexed by the workpool worker ID.
type lane struct {
	conn   *hashtab.AccumulatorI64   // clustering lane
	blocks *hashtab.DenseAccumulator // refinement lanes
	rng    rng.RNG

	evaluated, interior int64
}

// newLanes allocates one refinement lane over k blocks per pool worker plus,
// last, the commit pass's lane. k == 0 makes the one clustering lane with a
// default-sized table carved from ar (heap when ar is nil) — ParCluster
// sizes its own from the rank's largest neighbourhood instead.
func newLanes(pool *workpool.Pool, ar *arena.Arena, k int32) []lane {
	if k == 0 {
		return []lane{{conn: hashtab.NewAccumulatorI64In(ar, 64)}}
	}
	lanes := make([]lane, pool.Size()+1)
	for i := range lanes {
		lanes[i].blocks = hashtab.NewDenseAccumulator(int(k))
	}
	return lanes
}

// chunkSeed derives the tie-breaking RNG seed of one propose chunk. A pure
// function of (phaseSeed, chunk): the streams are identical no matter which
// worker runs the chunk or how many workers exist.
func chunkSeed(phaseSeed uint64, chunk int) uint64 {
	return phaseSeed ^ (uint64(chunk)+1)*0x9e3779b97f4a7c15
}

// commitSeed derives the seed of a phase's sequential RNG stream — the
// clustering sweep's, the refinement commit pass's. A different mixing
// constant than chunkSeed keeps it uncorrelated with every propose chunk
// stream; since the pass runs in traversal order on one goroutine, a single
// per-phase stream is deterministic and independent of the worker count.
func commitSeed(phaseSeed uint64) uint64 {
	return phaseSeed ^ 0xbf58476d1ce4e5b9
}

// labelWeights holds the cluster weights one rank maintains during
// clustering (§IV-B), keyed by cluster label. Labels in the rank's own ID
// range — most of what a node's neighbourhood shows — index a flat array;
// only foreign labels (ghosts' clusters) go through the hash map. A label
// never seen reads as weight 0, as it did when everything was in the map.
// The sequential kernel uses it with the whole ID range as "own".
type labelWeights struct {
	first   int64   // label of own[0]
	own     []int64 // weight of cluster first+i
	foreign *hashtab.MapI64
}

// newLabelWeights starts every local and ghost node of d as a singleton
// cluster labelled by its global ID.
func newLabelWeights(d *dgraph.DGraph) *labelWeights {
	nl, nt := d.NLocal(), d.NTotal()
	w := &labelWeights{
		first:   d.FirstGlobal(),
		own:     make([]int64, nl),
		foreign: hashtab.NewMapI64(int(nt-nl) + 16),
	}
	copy(w.own, d.NW[:nl])
	for v := nl; v < nt; v++ {
		w.foreign.Put(d.ToGlobal(v), d.NW[v])
	}
	return w
}

//parhip:hotpath
func (w *labelWeights) Get(label int64) int64 {
	if i := label - w.first; uint64(i) < uint64(len(w.own)) {
		return w.own[i]
	}
	lw, _ := w.foreign.Get(label)
	return lw
}

//parhip:hotpath
func (w *labelWeights) Add(label, delta int64) {
	if i := label - w.first; uint64(i) < uint64(len(w.own)) {
		w.own[i] += delta
		return
	}
	lw, _ := w.foreign.Get(label)
	w.foreign.Put(label, lw+delta)
}

// The move selections below are shared by the parallel kernels (the
// clustering sweep; refinement in both roles: propose against frozen
// phase-start state, commit against current state), the sequential kernels
// of seq.go and kaffpa's FM. Each is a gather — scan
// the neighbourhood, and only if it can matter accumulate the ratings —
// followed by a select over the accumulated ratings. What they skip cannot
// change the returned target or the number of RNG draws (DESIGN.md §13);
// TestKernelsMatchOracle holds them to the full-accumulate originals.

// gatherLabels accumulates the edge weight from v towards each admissible
// neighbouring cluster into conn — admissible meaning the same constraint
// label as v, when constraint is set — and reports whether a selection is
// needed at all. It is not when every admissible neighbour (possibly none)
// already carries v's label: with only the incumbent rated, the selection
// keeps it without drawing. That case returns false from the plain scan,
// before conn is touched.
//
//parhip:hotpath
func gatherLabels[L int32 | int64](conn *hashtab.AccumulatorI64, nbrs []int32, ws []int64,
	labels, constraint []L, v int32) bool {

	i := 0
	for i < len(nbrs) && (labels[nbrs[i]] == labels[v] ||
		constraint != nil && constraint[nbrs[i]] != constraint[v]) {
		i++
	}
	if i == len(nbrs) {
		return false
	}
	conn.Reset()
	for i, nb := range nbrs {
		if constraint == nil || constraint[nb] == constraint[v] {
			conn.Add(int64(labels[nb]), ws[i])
		}
	}
	return true
}

// selectCluster picks, from the ratings gatherLabels accumulated, the
// cluster a node of weight nw in cluster cur joins: the strongest-connected
// one that stays within u after the move, ties broken by reservoir sampling
// with the incumbent taking part. Returns -1 to stay. A candidate rated
// below the best so far can neither win nor tie, so its weight is not even
// looked up.
//
//parhip:hotpath
func selectCluster(conn *hashtab.AccumulatorI64, cur, nw, u int64, weight *labelWeights, r *rng.RNG) int64 {
	best := cur
	bestConn, _ := conn.Get(cur)
	ties := 1
	conn.ForEach(func(label, c int64) {
		if label == cur || c < bestConn || weight.Get(label)+nw > u {
			return
		}
		if c > bestConn {
			best, bestConn, ties = label, c, 1
			return
		}
		ties++
		if r.Intn(ties) == 0 {
			best = label
		}
	})
	if best == cur {
		return -1
	}
	return best
}

// GatherBlocks is gatherLabels for block-keyed selections: it accumulates
// the edge weight from v towards every neighbouring block (v's own
// included) into conn and reports whether a selection is needed. It is not
// for a node without neighbours, nor — unless mustLeave is set, because v's
// block is overloaded and v may be sent to a block it has no edge to — for
// one whose neighbours all share its block: no other block is rated, so
// nothing can be selected. Those return false before conn is touched.
//
//parhip:hotpath
//lint:rawslice-ok internal kernel shared with kaffpa's FM: nbrs is an adjacency row and part the raw working assignment
func GatherBlocks[B int32 | int64](conn *hashtab.DenseAccumulator, nbrs []int32, ws []int64,
	part []B, v int32, mustLeave bool) bool {

	if len(nbrs) == 0 {
		return false
	}
	if !mustLeave {
		cur := part[v]
		i := 0
		for i < len(nbrs) && part[nbrs[i]] == cur {
			i++
		}
		if i == len(nbrs) {
			return false
		}
	}
	conn.Reset()
	for i, nb := range nbrs {
		conn.Add(int64(part[nb]), ws[i])
	}
	return true
}

// selectRefine picks, from the ratings GatherBlocks accumulated, the block a
// node of weight nw in block cur moves to, or -1 to stay. A block is
// eligible when the node fits under lmax and into this rank's remaining
// headroom share. prevB is the node's block in the previous partition (-1
// when the run is not migration-aware): it wins connectivity ties and pins
// the node against cut-neutral moves. A node of an overloaded block moves to
// its strongest eligible neighbouring block regardless of the cut, or, with
// none, to the lightest eligible block overall, so feasibility can always be
// restored (an extension beyond the paper's rule, which only considers
// neighbouring blocks); any other node moves only where the cut does not
// grow, and on equal connectivity only where balance improves.
//
//parhip:hotpath
func selectRefine(conn *hashtab.DenseAccumulator, cur, nw, prevB int64,
	blockWeight, headroom []int64, lmax int64, r *rng.RNG) int64 {

	best := int64(-1)
	var bestConn int64 = -1
	ties := 0
	conn.ForEach(func(label, c int64) {
		if label == cur || blockWeight[label]+nw > lmax || headroom[label] < nw {
			return
		}
		switch {
		case c > bestConn:
			best, bestConn, ties = label, c, 1
		case c == bestConn:
			if label == prevB {
				best = label // the previous block wins every tie
				return
			}
			if best == prevB {
				return // ...and never loses one it already won
			}
			ties++
			if r.Intn(ties) == 0 {
				best = label
			}
		}
	})
	overloaded := blockWeight[cur] > lmax
	if best < 0 {
		if !overloaded {
			return -1
		}
		for b := int64(0); b < int64(len(blockWeight)); b++ {
			if b == cur || blockWeight[b]+nw > lmax || headroom[b] < nw {
				continue
			}
			if best < 0 || blockWeight[b] < blockWeight[best] {
				best = b
			}
		}
		return best
	}
	if !overloaded {
		curConn, _ := conn.Get(cur)
		if bestConn < curConn {
			return -1
		}
		if bestConn == curConn {
			if cur == prevB {
				return -1 // cut-neutral move off the previous block: never
			}
			if best != prevB && blockWeight[best]+nw >= blockWeight[cur] {
				return -1
			}
		}
	}
	return best
}

// evalClusterNode evaluates one node against the current labels and cluster
// weights and returns the cluster label it selects, or -1 to stay. It
// mutates nothing shared.
//
//parhip:hotpath
func evalClusterNode(d *dgraph.DGraph, v int32, labels []int64, weight *labelWeights,
	constraint []int64, u int64, ln *lane) int64 {

	ln.evaluated++
	if !gatherLabels(ln.conn, d.Neighbors(v), d.EdgeWeights(v), labels, constraint, v) {
		ln.interior++
		return -1
	}
	return selectCluster(ln.conn, labels[v], d.NW[v], u, weight, &ln.rng)
}

// commitClusterMove is the clustering sweep's step: select for v and, if
// the selection names another cluster, move v there. It is seq.go's
// moveNode over the distributed graph view.
//
//parhip:hotpath
func commitClusterMove(d *dgraph.DGraph, v int32, labels []int64,
	weight *labelWeights, constraint []int64, u int64, ln *lane) bool {

	b := evalClusterNode(d, v, labels, weight, constraint, u, ln)
	if b < 0 {
		return false
	}
	nw := d.NW[v]
	weight.Add(labels[v], -nw)
	weight.Add(b, nw) // fits: the selection enforced weight(b)+nw <= u
	labels[v] = b
	return true
}

// proposeRefine is the parallel half of one refinement superstep: every
// chunk of the phase's traversal order evaluates its nodes against the
// phase-start part, block weights and headroom shares (all frozen during
// the pass) and records the winning target block — or -1 for "stay" — in
// props. props is indexed by traversal position, so chunk writes are
// disjoint. Returns the summed lane busy time.
func proposeRefine(d *dgraph.DGraph, pool *workpool.Pool, lanes []lane, phaseSeed uint64,
	phase []int32, props []int64, part, prev []int64,
	blockWeight, headroom []int64, lmax int64) time.Duration {

	nchunks := workpool.Chunks(len(phase), proposeChunk)
	return pool.Run(nchunks, func(worker, chunk int) {
		ln := &lanes[worker]
		ln.rng.Reseed(chunkSeed(phaseSeed, chunk))
		lo, hi := workpool.Bounds(len(phase), nchunks, chunk)
		for i := lo; i < hi; i++ {
			props[i] = proposeRefineNode(d, phase[i], part, prev, blockWeight, headroom, lmax, ln)
		}
	})
}

// proposeRefineNode evaluates one node and returns the block it selects,
// or -1 to stay. It mutates nothing shared: part and the weight vectors are
// only read. It runs in two roles: during the parallel propose pass it sees
// phase-start state and its verdict only *flags* the node for
// re-examination; during the sequential commit pass it re-runs against
// current state and its verdict is final. Nodes whose stale verdict said
// "stay" still get re-examined when a same-phase committed move dirtied
// them (see the cascade dirty-set in ParRefine).
//
//parhip:hotpath
func proposeRefineNode(d *dgraph.DGraph, v int32, part, prev []int64,
	blockWeight, headroom []int64, lmax int64, ln *lane) int64 {

	ln.evaluated++
	cur := part[v]
	if !GatherBlocks(ln.blocks, d.Neighbors(v), d.EdgeWeights(v), part, v, blockWeight[cur] > lmax) {
		ln.interior++
		return -1
	}
	prevB := int64(-1)
	if prev != nil {
		prevB = prev[v]
	}
	return selectRefine(ln.blocks, cur, d.NW[v], prevB, blockWeight, headroom, lmax, &ln.rng)
}

// commitRefineMove finalizes one refinement proposal during the sequential
// commit pass: the full selection of proposeRefineNode re-runs against the
// current part, block weights and remaining headroom, so a committed move
// is exactly the one the sequential kernel would have made at this point
// of the traversal (the stale proposal only decided that the node is worth
// re-examining). headroom is decremented here and only here, so the union
// of committed moves keeps every block within the rank's claimed share and
// Lmax is never exceeded.
//
//parhip:hotpath
func commitRefineMove(d *dgraph.DGraph, v int32, part, prev []int64,
	blockWeight, localContrib, headroom []int64, lmax int64, ln *lane) bool {

	b := proposeRefineNode(d, v, part, prev, blockWeight, headroom, lmax, ln)
	if b < 0 {
		return false
	}
	cur := part[v]
	nw := d.NW[v]
	blockWeight[cur] -= nw
	blockWeight[b] += nw
	localContrib[cur] -= nw
	localContrib[b] += nw
	headroom[b] -= nw
	part[v] = b
	return true
}

// maxLocalDegree returns the largest degree among d's local nodes.
func maxLocalDegree(d *dgraph.DGraph) int32 {
	maxDeg := int32(0)
	for v := int32(0); v < d.NLocal(); v++ {
		maxDeg = max(maxDeg, d.Degree(v))
	}
	return maxDeg
}

// countingSortByDegree reorders order — currently the identity permutation
// over the local nodes — ascending by local degree with ties broken by node
// ID, in O(n + maxDegree) time and without a comparator closure. Filling
// the buckets by increasing node ID makes the sort stable, so the result is
// exactly the permutation the old sort.Slice comparator produced.
func countingSortByDegree(d *dgraph.DGraph, order []int32, ar *arena.Arena) {
	counts := ar.Ints(int(maxLocalDegree(d)) + 2)
	for _, v := range order {
		counts[d.Degree(v)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := ar.Int32s(len(order))
	for v := int32(0); v < int32(len(order)); v++ {
		dg := d.Degree(v)
		out[counts[dg]] = v
		counts[dg]++
	}
	copy(order, out)
}
