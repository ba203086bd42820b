package sclp

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/hashtab"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// The four oracle* functions below are the move selections as they stood at
// the parent of PR 22, kept verbatim (renamed, lint annotations dropped) as
// test oracles: every neighbour is accumulated into a hash accumulator and
// every candidate's eligibility is looked up, whether or not it can change
// the answer. The TestKernelsMatchOracle tests after them hold the production
// kernels to the same returned target and the same number of RNG draws, node
// by node. The clustering kernels rate in dense slots, so this also holds
// them to the hash table the slots replaced.

func oracleProposeClusterNode(d *dgraph.DGraph, v int32, labels []int64, weight *hashtab.MapI64,
	constraint []int64, u int64, conn *hashtab.AccumulatorI64, r *rng.RNG) int64 {

	nbrs := d.Neighbors(v)
	if len(nbrs) == 0 {
		return -1
	}
	ws := d.EdgeWeights(v)
	conn.Reset()
	for i, nb := range nbrs {
		if constraint != nil && constraint[nb] != constraint[v] {
			continue
		}
		conn.Add(labels[nb], ws[i])
	}
	cur := labels[v]
	curConn, _ := conn.Get(cur)
	best := cur
	bestConn := curConn
	ties := 1
	nw := d.NW[v]
	conn.ForEach(func(label, c int64) {
		if label == cur {
			return
		}
		lw, _ := weight.Get(label)
		if lw+nw > u {
			return
		}
		switch {
		case c > bestConn:
			best, bestConn, ties = label, c, 1
		case c == bestConn && label != cur:
			ties++
			if r.Intn(ties) == 0 {
				best = label
			}
		}
	})
	if best == cur {
		return -1
	}
	return best
}

func oracleProposeRefineNode(d *dgraph.DGraph, v int32, part, prev []int64,
	blockWeight, headroom []int64, lmax int64,
	conn *hashtab.AccumulatorI64, r *rng.RNG) int64 {

	nbrs := d.Neighbors(v)
	if len(nbrs) == 0 {
		return -1
	}
	ws := d.EdgeWeights(v)
	conn.Reset()
	for i, nb := range nbrs {
		conn.Add(part[nb], ws[i])
	}
	cur := part[v]
	nw := d.NW[v]
	overloaded := blockWeight[cur] > lmax
	curConn, _ := conn.Get(cur)

	// prevB is the node's block in the previous partition (-1 when the run
	// is not migration-aware). It wins connectivity ties and pins the node
	// against cut-neutral moves.
	prevB := int64(-1)
	if prev != nil {
		prevB = prev[v]
	}

	eligible := func(b int64) bool {
		return blockWeight[b]+nw <= lmax && headroom[b] >= nw
	}
	best := int64(-1)
	var bestConn int64 = -1
	ties := 0
	conn.ForEach(func(label, c int64) {
		if label == cur || !eligible(label) {
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
	if best < 0 {
		if !overloaded {
			return -1
		}
		// Overloaded node with no eligible neighbouring block: lightest
		// eligible block overall (see the sequential variant).
		for b := int64(0); b < int64(len(blockWeight)); b++ {
			if b == cur || !eligible(b) {
				continue
			}
			if best < 0 || blockWeight[b] < blockWeight[best] {
				best = b
			}
		}
		return best
	}
	if !overloaded {
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

func oracleMoveNode(g *graph.Graph, v int32, labels []int32, weight []int64,
	constraint []int32, u int64, conn *hashtab.AccumulatorI64, r *rng.RNG) bool {

	nbrs := g.Neighbors(v)
	if len(nbrs) == 0 {
		return false
	}
	ws := g.EdgeWeights(v)
	conn.Reset()
	for i, nb := range nbrs {
		if constraint != nil && constraint[nb] != constraint[v] {
			continue
		}
		conn.Add(int64(labels[nb]), ws[i])
	}
	cur := labels[v]
	curConn, _ := conn.Get(int64(cur))
	best := cur
	bestConn := curConn
	ties := 1
	conn.ForEach(func(label, c int64) {
		l := int32(label)
		if l == cur {
			return
		}
		// Eligible when the target stays within the bound after the move.
		if weight[l]+g.NW[v] > u {
			return
		}
		switch {
		case c > bestConn:
			best, bestConn, ties = l, c, 1
		case c == bestConn && l != cur:
			// Reservoir sampling over tied candidates for random tie
			// breaking (staying put participates as the incumbent).
			ties++
			if r.Intn(ties) == 0 {
				best = l
			}
		}
	})
	if best == cur {
		return false
	}
	weight[cur] -= g.NW[v]
	weight[best] += g.NW[v]
	labels[v] = best
	return true
}

func oracleRefineNode(g *graph.Graph, v int32, p []int32, weight []int64,
	lmax int64, conn *hashtab.AccumulatorI64, r *rng.RNG) bool {

	nbrs := g.Neighbors(v)
	if len(nbrs) == 0 {
		return false
	}
	ws := g.EdgeWeights(v)
	conn.Reset()
	for i, nb := range nbrs {
		conn.Add(int64(p[nb]), ws[i])
	}
	cur := p[v]
	overloaded := weight[cur] > lmax
	curConn, _ := conn.Get(int64(cur))

	best := int32(-1)
	var bestConn int64 = -1
	ties := 0
	conn.ForEach(func(label, c int64) {
		b := int32(label)
		if b == cur {
			return
		}
		if weight[b]+g.NW[v] > lmax {
			return
		}
		switch {
		case c > bestConn:
			best, bestConn, ties = b, c, 1
		case c == bestConn:
			ties++
			if r.Intn(ties) == 0 {
				best = b
			}
		}
	})
	if best < 0 {
		if !overloaded {
			return false
		}
		// Overloaded node with no eligible neighbouring block: fall back to
		// the globally lightest block so feasibility can always be
		// restored. (Extension beyond the paper's rule, which only
		// considers neighbouring blocks; without it a block with no
		// boundary to an underloaded block could stay overloaded forever.)
		for b := int32(0); b < int32(len(weight)); b++ {
			if b == cur {
				continue
			}
			if best < 0 || weight[b] < weight[best] {
				best = b
			}
		}
		if best < 0 || weight[best]+g.NW[v] > lmax {
			return false
		}
	}
	if !overloaded {
		// Never worsen the cut: require at least as strong a connection,
		// and only take equal-connection moves when they help balance.
		if bestConn < curConn {
			return false
		}
		if bestConn == curConn && weight[best]+g.NW[v] >= weight[cur] {
			return false
		}
	}
	weight[cur] -= g.NW[v]
	weight[best] += g.NW[v]
	p[v] = best
	return true
}

// regionValues gives node with global ID g the value of its region of the
// ID range, perturbed for about one node in eight: most nodes of a region's
// inside see only their own value around them, the rest are boundary.
func regionValues(r *rng.RNG, globals []int64, n int64, regions int, value func(region int64) int64) []int64 {
	out := make([]int64, len(globals))
	for i, g := range globals {
		region := g * int64(regions) / n
		if r.Intn(8) == 0 {
			region = r.Int64n(int64(regions))
		}
		out[i] = value(region)
	}
	return out
}

// labelIndices maps global cluster labels, one per local+ghost node, to
// ParCluster's label indices: an ID that is local or a ghost gets its local
// ID, any other the next index from NTotal on. It returns each node's index
// and the global ID of every index.
func labelIndices(d *dgraph.DGraph, labels []int64) (idx []int32, global []int64) {
	global = globalIDs(d)
	foreign := map[int64]int32{}
	idx = make([]int32, len(labels))
	for v, l := range labels {
		i, ok := d.ToLocal(l)
		if !ok {
			if i, ok = foreign[l]; !ok {
				i = int32(len(global))
				foreign[l] = i
				global = append(global, l)
			}
		}
		idx[v] = i
	}
	return idx, global
}

// weightSlots is ParCluster's slot array for the cluster weights w, with
// every rating 0.
func weightSlots(w []int64) []clusterSlot {
	slots := make([]clusterSlot, len(w))
	for l := range slots {
		slots[l].weight = w[l]
	}
	return slots
}

// slotWeights copies the cluster weights out of slots into w.
func slotWeights(w []int64, slots []clusterSlot) {
	for l := range slots {
		w[l] = slots[l].weight
	}
}

func narrow32(xs []int64) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

func globalIDs(d *dgraph.DGraph) []int64 {
	ids := make([]int64, d.NTotal())
	for v := range ids {
		ids[v] = d.ToGlobal(int32(v))
	}
	return ids
}

// TestKernelsMatchOracleCluster: proposeClusterNode against the parent's
// selection on random labels, cluster weights (some at the bound, some never
// recorded) and constraints, for local and foreign labels alike (P=3 puts
// ghosts and foreign cluster IDs in every neighbourhood).
func TestKernelsMatchOracleCluster(t *testing.T) {
	for trial := uint64(0); trial < 12; trial++ {
		r := rng.New(100 + trial)
		g := testutil.KernelGraph(r, 1+3*int64(trial/2%2)) // unit and weighted edges by turns
		n := int64(g.NumNodes())
		for _, P := range []int{1, 3} {
			mpi.NewWorld(P).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, g)
				rr := rng.New(trial).Split(uint64(c.Rank()))
				ids := globalIDs(d)
				const u = 40
				// Labels: a region's representative is its first node's ID.
				labels := regionValues(rr, ids, n, 14, func(region int64) int64 { return (region*n + 13) / 14 })
				var constraint []int64
				if trial%2 == 1 {
					constraint = regionValues(rr, ids, n, 3, func(region int64) int64 { return region })
				}
				// The kernel sees ParCluster's label indices and the
				// constraint narrowed to int32.
				idx, global := labelIndices(d, labels)
				var newC []int32
				if constraint != nil {
					newC = narrow32(constraint)
				}
				oldW := hashtab.NewMapI64(16)
				newW := make([]int64, len(global))
				for i, l := range labels {
					if _, seen := oldW.Get(l); !seen && rr.Intn(5) > 0 {
						w := rr.Int64n(u + 4)
						oldW.Put(l, w)
						newW[idx[i]] = w
					}
				}
				slots := weightSlots(newW)
				oldConn := hashtab.NewAccumulatorI64(64)
				oldRNG := rng.New(7 * trial)
				ln := lane{touched: make([]int32, maxLocalDegree(d))}
				ln.rng = *rng.New(7 * trial)
				for v := int32(0); v < d.NLocal(); v++ {
					want := oracleProposeClusterNode(d, v, labels, oldW, constraint, u, oldConn, oldRNG)
					got := proposeClusterNode(d, v, idx, slots, newC, u, &ln)
					if got >= 0 {
						got = global[got]
					}
					if got != want || ln.rng != *oldRNG {
						t.Errorf("trial %d P=%d rank %d node %d: target %d (oracle %d), same RNG state: %v",
							trial, P, c.Rank(), v, got, want, ln.rng == *oldRNG)
						return
					}
				}
				if ln.evaluated != int64(d.NLocal()) || ln.interior == 0 || ln.interior == ln.evaluated {
					t.Errorf("trial %d P=%d rank %d: %d evaluated, %d interior: want every local node evaluated and both paths taken",
						trial, P, c.Rank(), ln.evaluated, ln.interior)
				}
			})
		}
	}
}

// balanceRegimes returns (lmax, blockWeight) vectors for the three cases
// the refinement selection distinguishes: nothing overloaded (some blocks
// nearly full), one block overloaded with room elsewhere, and one block
// overloaded while every other block is full.
func balanceRegimes(r *rng.RNG, k int) (names []string, lmax []int64, blockWeight [][]int64) {
	const bound = 100
	for regime, name := range []string{"none overloaded", "one overloaded", "others full"} {
		bw := make([]int64, k)
		for b := range bw {
			switch regime {
			case 0:
				bw[b] = bound - r.Int64n(6) // within 0..5 of the bound: node weights are 1..3
			case 1:
				bw[b] = bound - 2 - r.Int64n(20)
			case 2:
				bw[b] = bound
			}
		}
		if regime > 0 {
			bw[r.Intn(k)] = bound + 7
		}
		names, lmax, blockWeight = append(names, name), append(lmax, bound), append(blockWeight, bw)
	}
	return
}

// TestKernelsMatchOracleRefine: proposeRefineNode against the parent's
// selection over {prev nil, set} x the three balance regimes x tight and
// ample headroom shares.
func TestKernelsMatchOracleRefine(t *testing.T) {
	for trial := uint64(0); trial < 8; trial++ {
		r := rng.New(200 + trial)
		g := testutil.KernelGraph(r, 1+3*int64(trial/2%2)) // unit and weighted edges by turns
		n := int64(g.NumNodes())
		k := []int{2, 5, 16}[trial%3]
		for _, P := range []int{1, 3} {
			mpi.NewWorld(P).Run(func(c *mpi.Comm) {
				d := dgraph.FromGraph(c, g)
				rr := rng.New(trial).Split(uint64(c.Rank()))
				ids := globalIDs(d)
				block := func(region int64) int64 { return region % int64(k) }
				part := regionValues(rr, ids, n, 2*k, block)
				prevs := [][]int64{nil, regionValues(rr, ids, n, 2*k, block)}
				names, lmaxs, weights := balanceRegimes(rr, k)
				for regime := range names {
					for pi, prev := range prevs {
						headroom := make([]int64, k)
						for b := range headroom {
							headroom[b] = []int64{0, 1, 2, 1000}[rr.Intn(4)]
						}
						oldConn := hashtab.NewAccumulatorI64(64)
						oldRNG := rng.New(9 * trial)
						ln := lane{blocks: hashtab.NewDenseAccumulator(k)}
						ln.rng = *rng.New(9 * trial)
						for v := int32(0); v < d.NLocal(); v++ {
							want := oracleProposeRefineNode(d, v, part, prev, weights[regime], headroom, lmaxs[regime], oldConn, oldRNG)
							got := proposeRefineNode(d, v, part, prev, weights[regime], headroom, lmaxs[regime], &ln)
							if got != want || ln.rng != *oldRNG {
								t.Errorf("trial %d P=%d rank %d k=%d %s prev#%d node %d: target %d (oracle %d), same RNG state: %v",
									trial, P, c.Rank(), k, names[regime], pi, v, got, want, ln.rng == *oldRNG)
								return
							}
						}
						if ln.evaluated != int64(d.NLocal()) || ln.interior == 0 || ln.interior == ln.evaluated {
							t.Errorf("trial %d P=%d rank %d k=%d %s: %d evaluated, %d interior: want every local node evaluated and both paths taken",
								trial, P, c.Rank(), k, names[regime], ln.evaluated, ln.interior)
						}
					}
				}
			})
		}
	}
}

// oneRankGraph distributes g over a one-rank world. The sweep steps read
// only the level's arrays, never its communicator, so the result may be
// used after the world's run returns.
func oneRankGraph(g *graph.Graph) *dgraph.DGraph {
	var d *dgraph.DGraph
	mpi.NewWorld(1).Run(func(c *mpi.Comm) { d = dgraph.FromGraph(c, g) })
	return d
}

// TestKernelsMatchOracleSequential sweeps the one-rank sweep steps — what
// kaffpa runs — and the parent's sequential kernels over the same evolving
// state: after every node the labels (or blocks), the weights and the RNG
// state must agree. One rank has no ghosts and no foreign labels, so label
// indices are node IDs, and refinement's headroom is unlimited, as ParRefine
// sets it at P=1.
func TestKernelsMatchOracleSequential(t *testing.T) {
	for trial := uint64(0); trial < 12; trial++ {
		r := rng.New(300 + trial)
		g := testutil.KernelGraph(r, 1+3*int64(trial/2%2)) // unit and weighted edges by turns
		n := g.NumNodes()
		d := oneRankGraph(g)
		ids := make([]int64, n)
		for v := range ids {
			ids[v] = int64(v)
		}

		t.Run(fmt.Sprintf("cluster/%d", trial), func(t *testing.T) {
			const u = 25
			oldLabels := narrow32(regionValues(r, ids, int64(n), 14, func(region int64) int64 { return (region*int64(n) + 13) / 14 }))
			var constraint []int32
			if trial%2 == 1 {
				constraint = narrow32(regionValues(r, ids, int64(n), 3, func(region int64) int64 { return region }))
			}
			oldW := make([]int64, n)
			for v, l := range oldLabels {
				oldW[l] += g.NW[v]
			}
			newLabels := slices.Clone(oldLabels)
			newW := slices.Clone(oldW)
			slots := weightSlots(newW)
			oldConn := hashtab.NewAccumulatorI64(64)
			oldRNG := rng.New(trial)
			ln := lane{touched: make([]int32, maxLocalDegree(d))}
			ln.rng = *rng.New(trial)
			for sweep := 0; sweep < 3; sweep++ {
				for v := int32(0); v < n; v++ {
					want := oracleMoveNode(g, v, oldLabels, oldW, constraint, u, oldConn, oldRNG)
					got := commitClusterMove(d, v, newLabels, slots, constraint, u, &ln)
					slotWeights(newW, slots)
					if got != want || newLabels[v] != oldLabels[v] || ln.rng != *oldRNG || !slices.Equal(newW, oldW) {
						t.Fatalf("sweep %d node %d: moved %v to %d (oracle %v to %d), same RNG state: %v",
							sweep, v, got, newLabels[v], want, oldLabels[v], ln.rng == *oldRNG)
					}
				}
			}
		})

		k := []int{2, 5, 16}[trial%3]
		for regime, name := range []string{"none overloaded", "one overloaded", "others full"} {
			t.Run(fmt.Sprintf("refine/%d/%s", trial, name), func(t *testing.T) {
				oldP := narrow32(regionValues(r, ids, int64(n), 2*k, func(region int64) int64 { return region % int64(k) }))
				oldW := make([]int64, k)
				for v, b := range oldP {
					oldW[b] += g.NW[v]
				}
				sorted := slices.Clone(oldW)
				slices.Sort(sorted)
				// Lmax from the actual weights: above every block; below the
				// heaviest only; at the lightest, so that nothing fits anywhere.
				lmax := []int64{sorted[k-1] + 4, sorted[k-1] - 1, sorted[0]}[regime]
				newP := make([]int64, n)
				for v, b := range oldP {
					newP[v] = int64(b)
				}
				newW, contrib := slices.Clone(oldW), slices.Clone(oldW)
				headroom := make([]int64, k)
				for b := range headroom {
					headroom[b] = math.MaxInt64
				}
				oldConn := hashtab.NewAccumulatorI64(64)
				oldRNG := rng.New(trial)
				ln := lane{blocks: hashtab.NewDenseAccumulator(k)}
				ln.rng = *rng.New(trial)
				for sweep := 0; sweep < 3; sweep++ {
					for v := int32(0); v < n; v++ {
						want := oracleRefineNode(g, v, oldP, oldW, lmax, oldConn, oldRNG)
						got := commitRefineMove(d, v, newP, nil, newW, contrib, headroom, lmax, &ln)
						if got != want || newP[v] != int64(oldP[v]) || ln.rng != *oldRNG || !slices.Equal(newW, oldW) {
							t.Fatalf("sweep %d node %d: moved %v to %d (oracle %v to %d), same RNG state: %v",
								sweep, v, got, newP[v], want, oldP[v], ln.rng == *oldRNG)
						}
					}
				}
			})
		}
	}
}
