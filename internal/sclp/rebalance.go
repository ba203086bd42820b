package sclp

import (
	"sort"

	"repro/internal/dgraph"
	"repro/internal/hashtab"
	"repro/internal/intmath"
)

// ParRebalanceConfig controls the dedicated distributed rebalancing pass.
// It runs until feasible or no progress: every round strictly reduces the
// total overload, so the pass always terminates.
type ParRebalanceConfig struct {
	K    int32
	Lmax int64
}

// ParRebalance restores the hard balance constraint of §II-A: it moves
// minimum-cut-damage nodes out of overloaded blocks into blocks with
// remaining headroom until every block weight respects Lmax. part has
// NTotal entries with ghosts in sync (maintained). It returns the global
// number of moves performed and whether the partition is feasible
// afterwards; false is only possible when no progress can be made even
// with a block's entire headroom concentrated on a single rank (e.g. a
// node heavier than every block's remaining headroom). Since the total headroom under
// Lmax >= ceil(c(V)/k) is always at least the total overload, unit-weight
// (and generally max-node-weight <= Lmax - min-block-weight) instances
// always end feasible. Collective.
//
//parhip:collective
func ParRebalance(d *dgraph.DGraph, part []int64, cfg ParRebalanceConfig) (int64, bool) {
	k := cfg.K
	if k < 1 {
		return 0, false
	}
	nl := d.NLocal()
	localContrib := make([]int64, k)
	for v := int32(0); v < nl; v++ {
		localContrib[part[v]] += d.NW[v]
	}
	blockWeight := d.Comm.AllreduceSum(localContrib)
	headroom := make([]int64, k)
	demand := make([]int64, k)
	conn := hashtab.NewDenseAccumulator(int(k))
	changedSet := newDirtySet(nl)
	var totalMoves int64

	feasible := func() bool {
		for _, w := range blockWeight {
			if w > cfg.Lmax {
				return false
			}
		}
		return true
	}

	// stalls counts consecutive zero-move rounds. The first stall switches
	// the headroom claims to concentrated mode (a rank's proportional share
	// can land below a heavy node's weight even when the full headroom
	// would fit it); further stalls rotate the concentration target through
	// the demanding ranks, and only after every rank has had its turn does
	// the pass give up. All decisions flow from allreduced values, so the
	// ranks stay in lockstep.
	stalls := 0
	for round := 0; ; round++ {
		// Superstep boundary: cancelled worlds unwind here.
		d.Comm.CheckAbort()
		// blockWeight is rank-consistent, so every rank takes the same
		// branch and the collectives below stay symmetric.
		if feasible() {
			return totalMoves, true
		}
		if stalls > d.Comm.Size() {
			return totalMoves, false
		}

		// Demand: the weight this rank wants to evacuate from overloaded
		// blocks, claimed against every block that still has headroom.
		var evacuate int64
		for v := int32(0); v < nl; v++ {
			if blockWeight[part[v]] > cfg.Lmax {
				evacuate += d.NW[v]
			}
		}
		for b := int32(0); b < k; b++ {
			demand[b] = 0
			if evacuate > 0 && blockWeight[b] < cfg.Lmax {
				demand[b] = evacuate
			}
		}
		claimHeadroom(d.Comm, blockWeight, demand, cfg.Lmax, round, stalls > 0, headroom)

		// Eviction quotas keep P ranks from each independently draining the
		// full overload (paying up to P times the necessary cut damage):
		// this rank may start evictions from block b while it has removed
		// less than its contribution-proportional share of the overload.
		// The +1 keeps rounding from stalling progress; summed over ranks
		// the quotas always cover the overload.
		quota := make([]int64, k)
		for b := int32(0); b < k; b++ {
			if over := blockWeight[b] - cfg.Lmax; over > 0 {
				quota[b] = intmath.MulDivFloor(over, localContrib[b], blockWeight[b]) + 1
			}
		}

		moved := rebalanceRound(d, part, blockWeight, localContrib, headroom, quota,
			cfg.Lmax, conn, changedSet)
		exchangeLabels(d, part, nil, changedSet)
		blockWeight = d.Comm.AllreduceSum(localContrib)
		global := d.Comm.AllreduceSum1(moved)
		totalMoves += global
		if global == 0 {
			stalls++
		} else {
			stalls = 0
		}
	}
}

// rebalanceCandidate is one local node of an overloaded block, ranked by
// the cut damage its cheapest eviction would cause.
type rebalanceCandidate struct {
	v      int32
	damage int64
}

// rebalanceRound evicts local nodes from overloaded blocks in ascending
// cut-damage order, respecting this rank's claimed headroom shares (so the
// union of all ranks' moves cannot push any block past Lmax) and its
// eviction quotas (so ranks do not jointly over-drain). blockWeight and
// localContrib are updated with the local view of the moves.
func rebalanceRound(d *dgraph.DGraph, part []int64,
	blockWeight, localContrib, headroom, quota []int64, lmax int64,
	conn *hashtab.DenseAccumulator, changedSet *dirtySet) int64 {

	nl := d.NLocal()
	var cands []rebalanceCandidate
	for v := int32(0); v < nl; v++ {
		if blockWeight[part[v]] <= lmax {
			continue
		}
		// Cheapest eviction: internal connection minus the strongest
		// foreign connection (boundary nodes with strong outside ties rank
		// first; interior nodes pay their full internal connectivity).
		var own, bestForeign int64
		conn.Reset()
		ws := d.EdgeWeights(v)
		for i, nb := range d.Neighbors(v) {
			if part[nb] == part[v] {
				own += ws[i]
			} else {
				conn.Add(part[nb], ws[i])
			}
		}
		conn.ForEach(func(_, c int64) {
			if c > bestForeign {
				bestForeign = c
			}
		})
		cands = append(cands, rebalanceCandidate{v: v, damage: own - bestForeign})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].damage != cands[j].damage {
			return cands[i].damage < cands[j].damage
		}
		return cands[i].v < cands[j].v
	})

	evicted := make([]int64, len(blockWeight))
	var moved int64
	for _, cand := range cands {
		v := cand.v
		cur := part[v]
		if blockWeight[cur] <= lmax {
			continue // block already drained by earlier moves
		}
		if evicted[cur] >= quota[cur] {
			continue // this rank's share of the overload is done
		}
		nw := d.NW[v]
		// Re-evaluate the best target against the current local view:
		// strongest-connected block first, then the lightest block with
		// remaining claimed headroom as fallback.
		conn.Reset()
		ws := d.EdgeWeights(v)
		for i, nb := range d.Neighbors(v) {
			if part[nb] != cur {
				conn.Add(part[nb], ws[i])
			}
		}
		best := int64(-1)
		var bestConn int64 = -1
		conn.ForEach(func(b, c int64) {
			if headroom[b] >= nw && blockWeight[b]+nw <= lmax && c > bestConn {
				best, bestConn = b, c
			}
		})
		if best < 0 {
			for b := int64(0); b < int64(len(blockWeight)); b++ {
				if b == cur || headroom[b] < nw || blockWeight[b]+nw > lmax {
					continue
				}
				if best < 0 || blockWeight[b] < blockWeight[best] {
					best = b
				}
			}
		}
		if best < 0 {
			continue
		}
		blockWeight[cur] -= nw
		blockWeight[best] += nw
		localContrib[cur] -= nw
		localContrib[best] += nw
		headroom[best] -= nw
		evicted[cur] += nw
		part[v] = best
		moved++
		if d.IsInterface(v) {
			changedSet.add(v)
		}
	}
	return moved
}
