package sclp

import (
	"time"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/hashtab"
	"repro/internal/rng"
)

// ParStats aggregates one rank's superstep measurements. A clustering or
// refinement superstep is one sweep, and its time is booked to CommitNS.
// Evaluated and Interior are exact work counts, not timings: identical from
// run to run.
type ParStats struct {
	Supersteps int64
	// ProposeNS is always 0 and not written. It stays only because
	// benchmark/adapter.go, which changes only in a benchmark PR, reads it;
	// that PR deletes it.
	ProposeNS int64
	CommitNS  int64 // wall time of the sweeps
	// Evaluated counts the node evaluations of the sweeps; Interior is how
	// many of them returned "stay" from the neighbour scan alone, before
	// any rating was accumulated.
	Evaluated int64
	Interior  int64
}

// Add accumulates o into s.
func (s *ParStats) Add(o ParStats) {
	s.Supersteps += o.Supersteps
	s.CommitNS += o.CommitNS
	s.Evaluated += o.Evaluated
	s.Interior += o.Interior
}

// observe folds one superstep's sweep time into s. Nil-safe.
func (s *ParStats) observe(sweep time.Duration) {
	if s == nil {
		return
	}
	s.Supersteps++
	s.CommitNS += int64(sweep)
}

// count folds a lane's work counters into s. Nil-safe.
func (s *ParStats) count(ln *lane) {
	if s == nil {
		return
	}
	s.Evaluated += ln.evaluated
	s.Interior += ln.interior
}

// lane is the scratch of one kernel run: the clustering sweep's touched
// list or refinement's block accumulator, a generator reseeded at every
// phase boundary, and the work counters.
type lane struct {
	touched []int32                   // clustering: label indices rated for the node under evaluation
	blocks  *hashtab.DenseAccumulator // refinement
	rng     rng.RNG

	evaluated, interior int64
}

// clusterSlot is the clustering sweep's state of one label index: the
// locally maintained weight of its cluster and, while one node is being
// evaluated, the edge weight from that node towards it. Between evaluations
// every rating is 0 (DESIGN §13 rule 6).
type clusterSlot struct{ weight, rating int64 }

// commitSeed derives the seed of a phase's RNG stream — the clustering
// sweep's and the refinement sweep's — from the phase seed drawn from the
// rank stream.
func commitSeed(phaseSeed uint64) uint64 {
	return phaseSeed ^ 0xbf58476d1ce4e5b9
}

// packIsolated runs after the last clustering round and packs the nodes of
// degree 0 among the len(xadj)-1 local ones into clusters of weight at most
// u, in ID order (DESIGN.md §13). Labels are label indices and slots is
// indexed by them (see ParCluster). Label propagation cannot rate a node
// without neighbours, so each still labels a singleton cluster with its own
// ID, and a graph full of them would stop coarsening. Every constraint class
// (one class when constraint is nil) has one open cluster, labelled by its
// first member; a node that does not fit opens the next. A degree-0 node is
// nobody's ghost, so no rank needs telling, and nothing is drawn.
func packIsolated(xadj, nw []int64, labels, constraint []int32, slots []clusterSlot, u int64) {
	open := hashtab.NewMapI64(16) // constraint class -> label of its open cluster
	for v := range len(xadj) - 1 {
		if xadj[v+1] != xadj[v] {
			continue
		}
		var class int64
		if constraint != nil {
			class = int64(constraint[v])
		}
		own := labels[v]
		if to, ok := open.Get(class); ok && slots[to].weight+nw[v] <= u {
			slots[own].weight -= nw[v]
			slots[to].weight += nw[v]
			labels[v] = int32(to)
			continue
		}
		open.Put(class, int64(own))
	}
}

// The move selections below are shared by the clustering and refinement
// sweeps, which kaffpa runs on one rank, and kaffpa's FM. Each is a gather — scan the neighbourhood, and only if it can
// matter accumulate the ratings — followed by a select over the accumulated
// ratings. What they skip cannot change the returned target or the number
// of RNG draws (DESIGN.md §13); TestKernelsMatchOracle holds them to the
// full-accumulate originals.

// gatherLabels adds the edge weight from v towards each admissible
// neighbouring cluster into its slot's rating — admissible meaning the same
// constraint label as v, when constraint is set — and lists each rated label
// index in touched, reused from its start, the first time it is rated, which
// is when its rating still reads 0: edge weights are positive. touched must
// have room for every neighbour. It returns the touched list and whether a
// selection is needed at all. It is not when every
// admissible neighbour (possibly none) already carries v's label: with only
// the incumbent rated, the selection keeps it without drawing. That case
// returns false from the plain scan, before any rating is written.
//
//parhip:hotpath
func gatherLabels(slots []clusterSlot, touched, nbrs []int32, ws []int64,
	labels, constraint []int32, v int32) ([]int32, bool) {

	i := 0
	for i < len(nbrs) && (labels[nbrs[i]] == labels[v] ||
		constraint != nil && constraint[nbrs[i]] != constraint[v]) {
		i++
	}
	if i == len(nbrs) {
		return touched[:0], false
	}
	touched = touched[:len(nbrs)]
	ws = ws[:len(nbrs)]
	n := 0
	for i, nb := range nbrs {
		if constraint == nil || constraint[nb] == constraint[v] {
			l := labels[nb]
			s := &slots[l]
			// Written always and kept only on l's first rating: a
			// conditional move, not a branch the data decides.
			touched[n] = l
			if s.rating == 0 {
				n++
			}
			s.rating += ws[i]
		}
	}
	return touched[:n], true
}

// selectCluster picks, from the ratings gatherLabels left in the slots of
// the touched label indices, the cluster a node of weight nw in cluster cur
// joins: the strongest-connected one that stays within u after the move,
// ties broken by reservoir sampling with the incumbent taking part, the
// candidates offered in first-seen order. Returns -1 to stay. Every touched
// rating is read once and zeroed, so the slots are clean for the next node.
// A candidate rated below the best so far can neither win nor tie, so its
// weight is not even compared.
//
//parhip:hotpath
func selectCluster(slots []clusterSlot, touched []int32, cur int32, nw, u int64, r *rng.RNG) int64 {
	best := cur
	bestConn := slots[cur].rating
	ties := 1
	for _, l := range touched {
		s := &slots[l]
		c := s.rating
		s.rating = 0
		if l == cur || c < bestConn || s.weight+nw > u {
			continue
		}
		if c > bestConn {
			best, bestConn, ties = l, c, 1
			continue
		}
		ties++
		if r.Intn(ties) == 0 {
			best = l
		}
	}
	if best == cur {
		return -1
	}
	return int64(best)
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

// evalClusterNode evaluates one node against the current label indices and
// cluster weights and returns the label index it selects, or -1 to stay. It
// mutates nothing shared: the ratings it writes into slots it zeroes again.
//
//parhip:hotpath
func evalClusterNode(d *dgraph.DGraph, v int32, labels []int32, slots []clusterSlot,
	constraint []int32, u int64, ln *lane) int64 {

	ln.evaluated++
	var rated bool
	ln.touched, rated = gatherLabels(slots, ln.touched, d.Neighbors(v), d.EdgeWeights(v), labels, constraint, v)
	if !rated {
		ln.interior++
		return -1
	}
	return selectCluster(slots, ln.touched, labels[v], d.NW[v], u, &ln.rng)
}

// commitClusterMove is the clustering sweep's step: select for v and, if
// the selection names another cluster, move v there.
//
//parhip:hotpath
func commitClusterMove(d *dgraph.DGraph, v int32, labels []int32,
	slots []clusterSlot, constraint []int32, u int64, ln *lane) bool {

	b := evalClusterNode(d, v, labels, slots, constraint, u, ln)
	if b < 0 {
		return false
	}
	nw := d.NW[v]
	slots[labels[v]].weight -= nw
	slots[b].weight += nw // fits: the selection enforced weight+nw <= u
	labels[v] = int32(b)
	return true
}

// evalRefineNode evaluates one node against the current part, block weights
// and headroom shares and returns the block it selects, or -1 to stay. It
// mutates nothing shared.
//
//parhip:hotpath
func evalRefineNode(d *dgraph.DGraph, v int32, part, prev []int64,
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

// commitRefineMove is the refinement sweep's step: select for v and, if the
// selection names another block, move v there. headroom is decremented here
// and only here, so the moves of a phase keep every block within the rank's
// claimed share and Lmax is never exceeded.
//
//parhip:hotpath
func commitRefineMove(d *dgraph.DGraph, v int32, part, prev []int64,
	blockWeight, localContrib, headroom []int64, lmax int64, ln *lane) bool {

	b := evalRefineNode(d, v, part, prev, blockWeight, headroom, lmax, ln)
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

// countingSortByDegree fills order, one entry per local node, with the local
// nodes ascending by local degree with ties broken by node ID, in
// O(n + maxDegree) time and without a comparator closure. Filling the
// buckets by increasing node ID makes the sort stable, so the result is
// exactly the permutation the old sort.Slice comparator produced.
func countingSortByDegree(d *dgraph.DGraph, order []int32, ar *arena.Arena) {
	counts := ar.Ints(int(maxLocalDegree(d)) + 2)
	n := int32(len(order))
	for v := int32(0); v < n; v++ {
		counts[d.Degree(v)+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	for v := int32(0); v < n; v++ {
		dg := d.Degree(v)
		order[counts[dg]] = v
		counts[dg]++
	}
}
