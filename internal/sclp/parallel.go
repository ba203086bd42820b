// Package sclp implements size-constrained label propagation (§III-A of
// the paper) over a distributed graph; kaffpa runs it on one rank.
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
	"math/bits"
	"slices"
	"time"

	"repro/internal/arena"
	"repro/internal/dgraph"
	"repro/internal/hashtab"
	"repro/internal/intmath"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/workpool"
)

// ParClusterConfig controls the parallel clustering run (§IV-A/B).
type ParClusterConfig struct {
	// U is the cluster weight bound; during coarsening the constraint is
	// soft and enforced against locally maintained cluster weights only.
	U int64
	// Iterations is the number of label propagation rounds.
	Iterations int
	// DegreeOrder traverses local nodes by ascending local degree in the
	// first round (the paper parallelizes the degree ordering "by
	// considering only the local nodes").
	DegreeOrder bool
	// PhasesPerRound splits each round into communication phases: after
	// each phase the labels of changed interface nodes are exchanged with
	// adjacent PEs. This realizes the paper's overlapped phase scheme
	// (updates from phase kappa arrive before phase kappa+1) in BSP form.
	PhasesPerRound int
	// Constraint, when non-nil, has NTotal entries (ghosts in sync) and
	// restricts moves to clusters with the same constraint label (V-cycle
	// rule, §IV-D).
	Constraint []int64
	// Seed drives traversal order and tie breaking; each rank derives its
	// own stream.
	Seed uint64
	// Pool is not read. It stays only because benchmark/adapter.go, which
	// changes only in a benchmark PR, sets it; that PR deletes it.
	Pool *workpool.Pool
	// Arena, when non-nil, supplies the per-call scratch (traversal order,
	// bitsets, accumulator backing arrays). The caller resets it after the
	// call returns; nil falls back to the heap.
	Arena *arena.Arena
	// Stats, when non-nil, accumulates the superstep timings and the
	// node-evaluation counts (see ParStats).
	Stats *ParStats
}

// ParCluster runs parallel size-constrained label propagation on the
// distributed graph and returns a label per local+ghost node (ghost entries
// synchronized). Labels are global node IDs of cluster representatives.
// After the last round the rank's degree-0 nodes are packed (packIsolated).
// Collective.
//
// The sweeps work on int32 label indices, not global IDs; the returned IDs
// are the exchange buffer, filled for local nodes at the end (DESIGN §13).
//
//parhip:collective
func ParCluster(d *dgraph.DGraph, cfg ParClusterConfig) []int64 {
	if cfg.PhasesPerRound < 1 {
		cfg.PhasesPerRound = 8
	}
	nt := d.NTotal()
	labels := make([]int64, nt)
	idx := make([]int32, nt) // heap, not arena: the arena would keep NTotal int32s per rank for the run
	for v := int32(0); v < nt; v++ {
		labels[v] = d.ToGlobal(v)
		idx[v] = v
	}
	var constraint []int32 // block IDs, so they narrow like the labels
	if cfg.Constraint != nil {
		constraint = make([]int32, nt)
		for v := range constraint {
			constraint[v] = int32(cfg.Constraint[v])
		}
	}
	// Locally maintained cluster weights (paper §IV-B, coarsening): each PE
	// tracks the weights of clusters containing its local and ghost nodes.
	weight := slices.Clone(d.NW[:nt])
	var foreign []int64 // foreign[i] is the ID of label index nt+i
	foreignIdx := hashtab.NewMapI64(16)
	global := func(l int32) int64 {
		if l < nt {
			return d.ToGlobal(l)
		}
		return foreign[l-nt]
	}
	r := rng.New(cfg.Seed).Split(uint64(d.Comm.Rank()))

	nl := int(d.NLocal())
	order, runs := cfg.Arena.Int32s(nl), cfg.Arena.Int32s(numRuns(nl))
	// One rating table, sized so that it never grows inside the sweep.
	sweep := lane{conn: hashtab.NewAccumulatorI64In(cfg.Arena, int(maxLocalDegree(d)))}
	changedSet := newDirtySetIn(d.NLocal(), cfg.Arena)
	moveGhost := func(ghost int32, _, to int64) {
		l, ok := d.ToLocal(to)
		if !ok {
			i, added := foreignIdx.PutIfAbsent(to, int64(len(weight)))
			if added {
				foreign = append(foreign, to)
				weight = append(weight, 0) // no member of it was here before
			}
			l = int32(i)
		}
		weight[idx[ghost]] -= d.NW[ghost]
		weight[l] += d.NW[ghost]
		idx[ghost] = l
	}
	tracer := d.Comm.Tracer()
	rank := d.Comm.Rank()

	for iter := 0; iter < cfg.Iterations; iter++ {
		// The paper's first round may go by ascending local degree (the
		// degree ordering restricted to local nodes); every other round is
		// chunk-random.
		if iter == 0 && cfg.DegreeOrder {
			countingSortByDegree(d, order, cfg.Arena)
		} else {
			order = chunkShuffle(order, runs, nil, r) // every local node
		}
		var movedLocal int64
		// Every rank executes exactly PhasesPerRound phases regardless of
		// its local node count (phases are collective synchronization
		// points; ranks with few or no local nodes still participate).
		for ph := 0; ph < cfg.PhasesPerRound; ph++ {
			// Superstep boundary: a cancelled world unwinds here instead of
			// computing another phase (see mpi.Comm.CheckAbort).
			d.Comm.CheckAbort()
			sp := tracer.Begin(rank, "sclp.cluster_superstep")
			movedBefore := movedLocal
			phase := order[ph*len(order)/cfg.PhasesPerRound : (ph+1)*len(order)/cfg.PhasesPerRound]
			// The phase seed is drawn from the rank stream whether or not the
			// phase has nodes, keeping the stream aligned across ranks with
			// different local counts.
			sweep.rng.Reseed(commitSeed(r.Uint64()))

			// One Gauss-Seidel sweep (§IV-A: "each PE traverses its local
			// nodes and moves them"): every node is evaluated once, against
			// the labels and weights its predecessors in the phase left.
			ct0 := time.Now() //lint:determinism-ok stats timing only, never feeds partition state
			for _, v := range phase {
				if commitClusterMove(d, v, idx, weight, constraint, cfg.U, &sweep) {
					movedLocal++
					if d.IsInterface(v) {
						changedSet.add(v)
					}
				}
			}
			cfg.Stats.observe(time.Since(ct0)) //lint:determinism-ok stats timing only, never feeds partition state

			for _, v := range changedSet.stack {
				labels[v] = global(idx[v])
			}
			exchangeLabels(d, labels, moveGhost, changedSet)
			tracer.End2(sp, "moves", movedLocal-movedBefore, "phase", int64(iter*cfg.PhasesPerRound+ph))
		}
		if d.Comm.AllreduceSum1(movedLocal) == 0 {
			break
		}
	}
	packIsolated(d.XAdj, d.NW, idx, constraint, weight, cfg.U)
	for v := range int32(nl) {
		labels[v] = global(idx[v])
	}
	cfg.Stats.count(&sweep)
	return labels
}

// visitChunk is the run length of the sweeps' visit order (chunkShuffle).
const visitChunk = 1024

// numRuns is the number of visitChunk runs a list of n entries is cut into.
func numRuns(n int) int { return (n + visitChunk - 1) / visitChunk }

// chunkShuffle writes the ascending visit list to out in chunk-random order
// and returns out[:len(list)]; a nil list stands for 0..len(out)-1. The list
// is cut into runs of visitChunk consecutive entries, the runs are laid out
// in an order drawn from r, and each run is then shuffled with r; runs is
// scratch for numRuns entries.
// The order stays random at run granularity, while a run's nodes have
// neighbouring IDs: the sweep reads its own CSR rows nearly sequentially,
// and where IDs follow the geometry (meshes) a run's neighbour labels stay
// in cache, which one full shuffle throws away (DESIGN §13).
func chunkShuffle(out, runs, list []int32, r *rng.RNG) []int32 {
	n := len(list)
	if list == nil {
		n = len(out)
	}
	runs = runs[:numRuns(n)]
	for i := range runs {
		runs[i] = int32(i)
	}
	r.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
	out = out[:0]
	for _, c := range runs {
		lo, hi := int(c)*visitChunk, min(int(c+1)*visitChunk, n)
		for v := lo; v < hi; v++ {
			if list == nil {
				out = append(out, int32(v))
			} else {
				out = append(out, list[v])
			}
		}
		run := out[len(out)-(hi-lo):]
		r.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
	}
	return out
}

// dirtySet tracks the interface nodes changed during one phase: a stack
// preserving (deterministic) insertion order for staging, and a bitset for
// O(1) dedup. Both are reused across phases without reallocation — the
// steady superstep path allocates nothing here.
type dirtySet struct {
	stack []int32
	bits  []uint64
}

func newDirtySet(n int32) *dirtySet {
	return newDirtySetIn(n, nil)
}

// newDirtySetIn carves the bitset from ar when non-nil; the stack still
// grows on the heap (its size is data-dependent).
func newDirtySetIn(n int32, ar *arena.Arena) *dirtySet {
	return &dirtySet{bits: ar.Uint64s((int(n) + 63) / 64)}
}

//parhip:hotpath
func (s *dirtySet) add(v int32) {
	w, b := v>>6, uint64(1)<<(uint(v)&63)
	if s.bits[w]&b == 0 {
		s.bits[w] |= b
		s.stack = append(s.stack, v)
	}
}

func (s *dirtySet) reset() {
	for _, v := range s.stack {
		s.bits[v>>6] = 0
	}
	s.stack = s.stack[:0]
}

// exchangeLabels pushes the changed interface nodes' labels to the adjacent
// PEs holding their ghosts (plan-based sparse exchange) and applies the
// incoming updates, calling onUpdate (when non-nil) for every ghost whose
// value changes: clustering migrates the ghost's weight between the locally
// tracked clusters, refinement activates the ghost's local neighbours. The
// dirty set is drained for the next phase. Collective.
//
//parhip:collective
func exchangeLabels(d *dgraph.DGraph, labels []int64, onUpdate func(ghost int32, old, new int64), changed *dirtySet) {
	d.PushGhostsFunc(labels, changed.stack, onUpdate)
	changed.reset()
}

// refineRoundHook, nil outside tests, is shown every ParRefine round's visit
// list (ascending, before chunkShuffle) and the partition the round starts from.
var refineRoundHook func(d *dgraph.DGraph, round int, visit []int32, part []int64)

// activeSet is the bitset of local nodes refinement visits in its next
// round: the nodes that moved and the local neighbours of everything that
// moved, local or ghost. Any other node would be evaluated against the
// neighbourhood it already rejected.
type activeSet []uint64

//parhip:hotpath
func (s activeSet) add(v int32) { s[v>>6] |= 1 << (uint(v) & 63) }

// drain empties the set into out[:0], ascending by node ID, so the order
// the activations arrived in cannot reach the visit list.
func (s activeSet) drain(out []int32) []int32 {
	out = out[:0]
	for w, word := range s {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
		s[w] = 0
	}
	return out
}

// ParRefineConfig controls the parallel refinement run (§IV-B,
// uncoarsening): the number of blocks is small, the constraint is tight,
// and exact global block weights are restored by one allreduce at the end
// of every computation phase.
type ParRefineConfig struct {
	K    int32
	Lmax int64
	// Iterations is the number of refinement rounds (paper: r = 6).
	Iterations int
	// PhasesPerRound splits rounds into phases; block weights are made
	// exact after each phase.
	PhasesPerRound int
	// Seed drives traversal order and tie breaking per rank.
	Seed uint64
	// Prev, when non-nil (NTotal entries, this level's projection of the
	// previous partition), makes refinement migration-aware: a node sitting
	// on its previous block only leaves it for a strict connectivity gain,
	// and among equally connected targets the previous block always wins
	// the tie — so cut-neutral churn never migrates nodes. Nil leaves the
	// behavior (including the RNG stream) exactly as before.
	Prev []int64
	// Pool (not read), Arena, Stats: see ParClusterConfig.
	Pool  *workpool.Pool
	Arena *arena.Arena
	Stats *ParStats
}

// ParRefine improves the distributed partition part (NTotal entries, ghosts
// synced; values in [0, K)) in place and returns the global number of moves.
// To keep concurrent phases from overshooting Lmax, each rank limits the
// weight it adds to any block during one phase to a claimed share of the
// block's remaining headroom; shares are demand-proportional (see
// claimHeadroom), so with exact weights at phase starts blocks never exceed
// Lmax and positive headroom is always usable by some rank. Collective.
//
//parhip:collective
func ParRefine(d *dgraph.DGraph, part []int64, cfg ParRefineConfig) int64 {
	if cfg.PhasesPerRound < 1 {
		cfg.PhasesPerRound = 8
	}
	if cfg.Iterations <= 0 {
		return 0
	}
	k := cfg.K
	nl := d.NLocal()
	// localContrib[b] = node weight local nodes contribute to block b.
	localContrib := cfg.Arena.Int64s(int(k))
	for v := int32(0); v < nl; v++ {
		localContrib[part[v]] += d.NW[v]
	}
	blockWeight := d.Comm.AllreduceSum(localContrib)
	headroom := cfg.Arena.Int64s(int(k)) // weight this rank may still add per block
	demand := cfg.Arena.Int64s(int(k))
	// Global max node weight, for the fast headroom path below.
	maxNW := d.MaxNodeWeightGlobal()
	P := int64(d.Comm.Size())
	r := rng.New(cfg.Seed).Split(uint64(d.Comm.Rank()))
	active, order := cfg.Arena.Int32s(int(nl)), cfg.Arena.Int32s(int(nl))
	runs := cfg.Arena.Int32s(numRuns(int(nl)))
	ln := &lane{blocks: hashtab.NewDenseAccumulator(int(k))}
	changedSet := newDirtySetIn(nl, cfg.Arena)
	next := activeSet(cfg.Arena.Uint64s((int(nl) + 63) / 64))
	wakeGhost := func(ghost int32, _, _ int64) {
		for _, v := range d.GhostNeighbors(ghost) {
			next.add(v)
		}
	}
	tracer := d.Comm.Tracer()
	rank := d.Comm.Rank()
	var totalMoves int64

	for iter := 0; iter < cfg.Iterations; iter++ {
		// The first round visits every node, and so does any round that
		// starts with a block over Lmax (blockWeight is exact here): an
		// overloaded block's nodes must leave, changed neighbourhood or not.
		if iter == 0 || slices.Max(blockWeight) > cfg.Lmax {
			for v := int32(0); v < nl; v++ {
				next.add(v)
			}
		}
		active = next.drain(active)
		if refineRoundHook != nil {
			refineRoundHook(d, iter, active, part)
		}
		order = chunkShuffle(order, runs, active, r)
		var movedLocal int64
		// Fixed phase count on every rank (see ParCluster): phases are
		// collective synchronization points, however few nodes are active.
		for ph := 0; ph < cfg.PhasesPerRound; ph++ {
			// Superstep boundary: cancelled worlds unwind here.
			d.Comm.CheckAbort()
			sp := tracer.Begin(rank, "sclp.refine_superstep")
			movedBefore := movedLocal
			phase := order[ph*len(order)/cfg.PhasesPerRound : (ph+1)*len(order)/cfg.PhasesPerRound]
			// Headroom shares. On one rank blockWeight is exact and live
			// through the sweep, so Lmax alone bounds a move and no block's
			// headroom is limited: the sequential refinement (DESIGN §13).
			// On more, the fast path: when every block with headroom can
			// take a uniform h/P share that still fits the heaviest node,
			// the local split is exact and costs no communication. Only
			// tight blocks (0 < h, h/P < maxNW — the starvation regime)
			// need the demand-proportional claim. The choice is made from
			// rank-consistent data, so all ranks agree on whether the
			// claimHeadroom collective runs.
			switch {
			case P == 1:
				for b := range headroom {
					headroom[b] = math.MaxInt64
				}
			case tightHeadroom(blockWeight, cfg.Lmax, P, maxNW):
				refineDemand(d, phase, part, blockWeight, cfg.Lmax, ln.blocks, demand)
				claimHeadroom(d.Comm, blockWeight, demand, cfg.Lmax,
					iter*cfg.PhasesPerRound+ph, false, headroom)
			default:
				for b := int32(0); b < k; b++ {
					headroom[b] = max(cfg.Lmax-blockWeight[b], 0) / P
				}
			}
			// Phase seed: drawn on every rank regardless of local node count
			// (see ParCluster).
			ln.rng.Reseed(commitSeed(r.Uint64()))

			// One Gauss-Seidel sweep, as in ParCluster: every visited node is
			// evaluated once, against the part, block weights and headroom
			// its predecessors in the phase left. Headroom is consumed here,
			// so the claimed shares bound what this rank adds. A move
			// activates the mover and its local neighbours for the next round.
			ct0 := time.Now() //lint:determinism-ok stats timing only, never feeds partition state
			for _, v := range phase {
				if commitRefineMove(d, v, part, cfg.Prev, blockWeight, localContrib, headroom, cfg.Lmax, ln) {
					movedLocal++
					next.add(v)
					for _, nb := range d.Neighbors(v) {
						if nb < nl {
							next.add(nb)
						}
					}
					if d.IsInterface(v) {
						changedSet.add(v)
					}
				}
			}
			cfg.Stats.observe(time.Since(ct0)) //lint:determinism-ok stats timing only, never feeds partition state

			exchangeLabels(d, part, wakeGhost, changedSet)
			// Restore exact block weights (one allreduce per phase).
			blockWeight = d.Comm.AllreduceSum(localContrib)
			tracer.End2(sp, "moves", movedLocal-movedBefore, "phase", int64(iter*cfg.PhasesPerRound+ph))
		}
		moved := d.Comm.AllreduceSum1(movedLocal)
		totalMoves += moved
		if moved == 0 {
			break
		}
	}
	cfg.Stats.count(ln)
	return totalMoves
}

// tightHeadroom reports whether some block has headroom h > 0 whose uniform
// share h/P cannot take the heaviest node.
func tightHeadroom(blockWeight []int64, lmax, P, maxNW int64) bool {
	for _, w := range blockWeight {
		if h := lmax - w; h > 0 && h/P < maxNW {
			return true
		}
	}
	return false
}

// refineDemand fills demand[b] with the weight of this phase's nodes that
// could plausibly move into block b: boundary weight adjacent to b, plus —
// for nodes of overloaded blocks, whose fallback may target any block —
// their weight credited to the globally lightest block. blockWeight is the
// phase-start global vector (identical on every rank), so the lightest
// block is chosen consistently.
func refineDemand(d *dgraph.DGraph, phase []int32, part []int64,
	blockWeight []int64, lmax int64, conn *hashtab.DenseAccumulator, demand []int64) {

	for b := range demand {
		demand[b] = 0
	}
	lightest := int64(0)
	for b := 1; b < len(blockWeight); b++ {
		if blockWeight[b] < blockWeight[lightest] {
			lightest = int64(b)
		}
	}
	for _, v := range phase {
		cur := part[v]
		nw := d.NW[v]
		conn.Reset()
		for _, nb := range d.Neighbors(v) {
			if part[nb] != cur {
				conn.Add(part[nb], 1)
			}
		}
		conn.ForEach(func(b, _ int64) { demand[b] += nw })
		if blockWeight[cur] > lmax && lightest != cur {
			if _, adjacent := conn.Get(lightest); !adjacent {
				demand[lightest] += nw
			}
		}
	}
}

// claimHeadroom splits every block's remaining headroom h = Lmax -
// blockWeight[b] across the ranks and writes this rank's share into out.
// Shares are proportional to the ranks' demands (largest-remainder style:
// integer floors first, then the residual is handed out unit-wise across
// the demanding ranks starting at a rotating offset), so h > 0 with any
// demand is always usable by someone — unlike the old uniform h/P split,
// which floored to zero for every rank whenever h < P and let nearly-full
// blocks starve. When no rank demands a block, its whole headroom rotates
// to one rank per phase so fallback moves remain possible. With
// concentrate set, proportional splitting is skipped and each block's
// whole headroom goes to one demanding rank (rotating per round) — the
// rebalancer's escape hatch when proportional shares all land below a
// heavy node's weight. All inputs are rank-consistent, so every rank
// computes the identical allocation. Collective.
//
//parhip:collective
func claimHeadroom(c *mpi.Comm, blockWeight, demand []int64, lmax int64, round int,
	concentrate bool, out []int64) {

	all := c.Allgatherv(demand)
	P := c.Size()
	rank := c.Rank()
	var dem []int
	for b := range blockWeight {
		out[b] = 0
		h := lmax - blockWeight[b]
		if h <= 0 {
			continue
		}
		var total int64
		dem = dem[:0]
		for r := 0; r < P; r++ {
			if all[r][b] > 0 {
				total += all[r][b]
				dem = append(dem, r)
			}
		}
		if total == 0 {
			// No demand recorded: rotate the whole headroom to one rank so
			// positive headroom can still absorb fallback moves.
			if (round+b)%P == rank {
				out[b] = h
			}
			continue
		}
		if concentrate {
			if dem[(round+b)%len(dem)] == rank {
				out[b] = h
			}
			continue
		}
		var assigned int64
		for _, r := range dem {
			s := intmath.MulDivFloor(h, all[r][b], total)
			assigned += s
			if r == rank {
				out[b] = s
			}
		}
		// Residual round: the few units lost to flooring go to the
		// demanding ranks, one slot rotating per phase.
		residual := h - assigned
		if residual > 0 {
			q := residual / int64(len(dem))
			rem := residual % int64(len(dem))
			for j, r := range dem {
				extra := q
				if int64((j+round)%len(dem)) < rem {
					extra++
				}
				if r == rank {
					out[b] += extra
				}
			}
		}
	}
}
