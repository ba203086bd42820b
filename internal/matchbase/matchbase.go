// Package matchbase implements the comparison baseline of the paper's
// evaluation: a ParMETIS-style parallel multilevel partitioner built on
// heavy-edge matching.
//
// The coarsening phase computes a matching restricted to rank-local edges
// (heavy-edge heuristic: every unmatched node matches its heaviest
// unmatched local neighbour) and contracts matched pairs. A matching can at
// best halve the graph, and on complex networks with star-like structures
// it does far worse — the failure mode the paper identifies ("ParMetis
// cannot coarsen the graphs effectively so that the coarsening phase is
// stopped too early"). When coarsening stalls, the still-large coarsest
// graph is replicated on every PE for initial partitioning; a configurable
// per-PE memory budget models the paper's out-of-memory failures (reported
// as "*" in Tables II/III).
package matchbase

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/kaffpa"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sclp"
)

// ErrMemoryBudget reports that replicating the coarsest graph would exceed
// the configured per-PE memory budget — the analogue of ParMETIS running
// out of memory on uk-2007/sk-2005/arabic in the paper.
var ErrMemoryBudget = errors.New("matchbase: coarsest graph exceeds the per-PE memory budget")

// Settings with one value in use.
const (
	// maxLevels bounds the coarsening depth.
	maxLevels = 40
	// CoarsestPerBlock stops coarsening once GlobalN <= CoarsestPerBlock*K;
	// minCoarsest is an absolute floor. Exported because the experiments
	// size the per-PE memory budget from it.
	CoarsestPerBlock = 100
	minCoarsest      = 300
	// stallFactor stops coarsening when one matching round shrinks the
	// node count by less than this factor (ParMETIS stops "too early" on
	// complex networks because matchings cannot shrink them).
	stallFactor = 0.95
	// refineIters bounds the boundary refinement rounds per level.
	refineIters = 6
)

// Config parameterizes a baseline run.
type Config struct {
	K   int32
	Eps float64

	// MemoryBudgetNodes is the largest coarsest graph (in nodes) a PE may
	// replicate; 0 means unlimited. The run fails with ErrMemoryBudget
	// beyond it.
	MemoryBudgetNodes int64
	// Seed drives randomness.
	Seed uint64
	// Tracer, when non-nil, records per-rank spans (matching rounds,
	// exchange supersteps) for the run. Nil records nothing; the spans
	// still time the run for Stats.
	Tracer *obs.Tracer
}

// DefaultConfig returns the baseline defaults.
func DefaultConfig(k int32) Config {
	return Config{
		K:    k,
		Eps:  0.03,
		Seed: 1,
	}
}

func (c *Config) normalize() {
	if c.Eps <= 0 {
		c.Eps = 0.03
	}
}

// parallelHeavyEdgeMatching computes a heavy-edge matching in two stages,
// the scheme parallel matchers like ParMETIS's use. Stage one matches each
// unmatched node to its heaviest unmatched *local* neighbour. Stage two
// handles cross-rank edges with a propose/accept handshake: every remaining
// unmatched node proposes to its heaviest unmatched ghost neighbour; owners
// process incoming proposals in deterministic order and accept the first
// for each still-unmatched target; acceptances are sent back (collective).
// Even so, a matching can at best halve the graph, and star-like structures
// leave most nodes unmatched — the coarsening failure the paper exploits.
// The returned labels merge matched pairs (label = min global ID) and leave
// unmatched nodes as singletons.
func parallelHeavyEdgeMatching(d *dgraph.DGraph, maxWeight int64, r *rng.RNG) []int64 {
	nl := d.NLocal()
	labels := make([]int64, d.NTotal())
	for v := int32(0); v < d.NTotal(); v++ {
		labels[v] = d.ToGlobal(v)
	}
	matched := make([]bool, nl)
	order := make([]int32, nl)
	for i := range order {
		order[i] = int32(i)
	}
	r.Shuffle(int(nl), func(i, j int) { order[i], order[j] = order[j], order[i] })

	// Stage 1: local matching.
	for _, v := range order {
		if matched[v] {
			continue
		}
		ws := d.EdgeWeights(v)
		var best int32 = -1
		var bestW int64 = -1
		for i, u := range d.Neighbors(v) {
			if u >= nl || matched[u] || u == v {
				continue
			}
			if d.NW[v]+d.NW[u] > maxWeight {
				continue
			}
			if ws[i] > bestW {
				best, bestW = u, ws[i]
			}
		}
		if best < 0 {
			continue
		}
		matched[v] = true
		matched[best] = true
		gv, gu := d.ToGlobal(v), d.ToGlobal(best)
		if gu < gv {
			gv = gu
		}
		labels[v] = gv
		labels[best] = gv
	}

	// Stage 2: cross-rank handshake, staged by destination rank in one
	// sharder: proposals go to ghost owners, acceptances back to proposer
	// owners. Proposals carry (proposer, target); owners accept greedily in
	// (target, proposer) order for determinism across runs, and each
	// proposer gets at most one acceptance, so arrival order decides
	// nothing.
	sh := mpi.NewSharder(d.Comm)
	for _, v := range order {
		if matched[v] {
			continue
		}
		ws := d.EdgeWeights(v)
		var best int32 = -1
		var bestW int64 = -1
		for i, u := range d.Neighbors(v) {
			if u < nl || u == v {
				continue // local neighbours were stage 1
			}
			if d.NW[v]+d.NW[u] > maxWeight {
				continue
			}
			if ws[i] > bestW {
				best, bestW = u, ws[i]
			}
		}
		if best < 0 {
			continue
		}
		sh.Add(int(d.GhostOwner(best)), d.ToGlobal(v), d.ToGlobal(best))
	}
	// Flatten and sort incoming proposals deterministically.
	var all []proposal
	sh.Exchange(func(src int, buf []int64) {
		if len(buf)%2 != 0 {
			d.Comm.Abort()
			panic(fmt.Sprintf("matchbase: rank %d sent %d words of proposals (not pairs)", src, len(buf)))
		}
		for i := 0; i < len(buf); i += 2 {
			all = append(all, proposal{buf[i], buf[i+1]})
		}
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].target != all[j].target {
			return all[i].target < all[j].target
		}
		return all[i].proposer < all[j].proposer
	})
	for _, p := range all {
		lu, ok := d.ToLocal(p.target)
		if !ok || lu >= nl || matched[lu] {
			continue
		}
		matched[lu] = true
		label := p.proposer
		if p.target < label {
			label = p.target
		}
		labels[lu] = label
		sh.Add(d.Owner(p.proposer), p.proposer, label)
	}
	sh.Exchange(func(src int, buf []int64) {
		if len(buf)%2 != 0 {
			d.Comm.Abort()
			panic(fmt.Sprintf("matchbase: rank %d sent %d words of acceptances (not pairs)", src, len(buf)))
		}
		for i := 0; i < len(buf); i += 2 {
			lu, ok := d.ToLocal(buf[i])
			if ok && lu < nl {
				matched[lu] = true
				labels[lu] = buf[i+1]
			}
		}
	})
	return labels
}

// proposal is one cross-rank matching request.
type proposal struct{ proposer, target int64 }

// PartitionDistributed runs the baseline on a distributed graph and reports
// it in the main partitioner's Stats: Levels are the matching hierarchy
// down to the coarsest graph that was replicated. Collective. It stops
// only through the world's abort, with the cancellation contract of
// core.PartitionDistributed.
//
//parhip:collective
func PartitionDistributed(d *dgraph.DGraph, cfg Config) ([]int64, core.Stats, error) {
	if cfg.K < 1 {
		return nil, core.Stats{}, fmt.Errorf("matchbase: k = %d", cfg.K)
	}
	cfg.normalize()
	c := d.Comm
	tr, rank := c.Tracer(), c.Rank()
	// The Stats times are span durations, as in core.
	spRun := tr.Begin(rank, "matchbase.partition")
	var st core.Stats
	shared := rng.New(cfg.Seed)
	local := rng.New(cfg.Seed).Split(uint64(c.Rank() + 1))
	totalWeight := d.GlobalNodeWeight()
	lmax := partition.Lmax(totalWeight, cfg.K, cfg.Eps)
	coarsestLimit := max(CoarsestPerBlock*int64(cfg.K), minCoarsest)
	// Matched pairs must stay contractible into a feasible partition.
	maxPair := lmax / 2
	if mw := d.MaxNodeWeightGlobal(); maxPair < mw {
		maxPair = mw
	}

	type levelRec struct {
		fine         *dgraph.DGraph
		coarse       *dgraph.DGraph
		fineToCoarse []int64
	}
	cur := d
	var levels []levelRec
	st.Levels = append(st.Levels, core.LevelStat{N: cur.GlobalN, M: cur.GlobalM})
	spCoarsen := tr.Begin(rank, "matchbase.coarsen")
	for lvl := 0; lvl < maxLevels && cur.GlobalN > coarsestLimit; lvl++ {
		sp := tr.Begin(rank, "matchbase.match_round")
		labels := parallelHeavyEdgeMatching(cur, maxPair, local)
		// Owners may have matched nodes other ranks hold as ghosts; bring
		// the ghost labels in sync before contracting.
		cur.SyncGhosts(labels)
		res := contract.ParContract(cur, labels)
		tr.End2(sp, "level", int64(lvl), "coarse_n", res.Coarse.GlobalN)
		if float64(res.Coarse.GlobalN) >= stallFactor*float64(cur.GlobalN) {
			break
		}
		levels = append(levels, levelRec{fine: cur, coarse: res.Coarse, fineToCoarse: res.FineToCoarse})
		cur = res.Coarse
		st.Levels = append(st.Levels, core.LevelStat{N: cur.GlobalN, M: cur.GlobalM})
	}
	st.CoarsenTime = tr.End(spCoarsen)

	// Replicating the coarsest graph is where memory blows up when
	// coarsening stalled.
	if cfg.MemoryBudgetNodes > 0 && cur.GlobalN > cfg.MemoryBudgetNodes {
		st.TotalTime = tr.End(spRun)
		return nil, st, fmt.Errorf("%w: %d nodes > budget %d",
			ErrMemoryBudget, cur.GlobalN, cfg.MemoryBudgetNodes)
	}

	spInit := tr.Begin(rank, "matchbase.initial_partition")
	coarsest := cur.Gather()
	// Initial partitioning: recursive bisection (PT-Scotch/ParMETIS style),
	// identical on all ranks via the shared seed.
	kc := kaffpa.DefaultConfig(cfg.K)
	kc.Eps = cfg.Eps
	kc.Seed = shared.Uint64()
	kc.CoarsestSize = coarsest.NumNodes() + 1 // no further coarsening inside
	best, err := kaffpa.Partition(coarsest, kc)
	if err != nil {
		return nil, st, err
	}
	st.InitTime = tr.End(spInit)

	spRefine := tr.Begin(rank, "matchbase.refine")
	curPart := make([]int64, cur.NTotal())
	for v := int32(0); v < cur.NTotal(); v++ {
		curPart[v] = int64(best[cur.ToGlobal(v)])
	}
	refine := func(dg *dgraph.DGraph, part []int64) {
		sclp.ParRefine(dg, part, sclp.ParRefineConfig{
			K: cfg.K, Lmax: lmax, Iterations: refineIters, Seed: shared.Uint64(), Stats: &st.Par,
		})
	}
	refine(cur, curPart)
	for i := len(levels) - 1; i >= 0; i-- {
		lv := levels[i]
		curPart = contract.ParProject(lv.fine, lv.coarse, lv.fineToCoarse, curPart)
		refine(lv.fine, curPart)
	}
	st.RefineTime = tr.End(spRefine)

	st.Cut = d.EdgeCut(curPart)
	bw := d.BlockWeights(curPart, cfg.K)
	var mx int64
	st.Feasible = true
	for _, w := range bw {
		if w > mx {
			mx = w
		}
		if w > lmax {
			st.Feasible = false
		}
	}
	st.Imbalance = float64(mx)/(float64(totalWeight)/float64(cfg.K)) - 1
	st.Lmax = lmax
	st.MaxBlockWeight = mx
	st.TotalTime = tr.End1(spRun, "cut", st.Cut)
	return curPart, st, nil
}

// RunCtx partitions g with P simulated PEs using the baseline, through
// the main partitioner's runner. It returns ErrMemoryBudget (wrapped) when
// the memory model aborts the run; cancelling ctx unwinds every simulated
// rank cooperatively and returns ctx.Err().
func RunCtx(ctx context.Context, P int, g *graph.Graph, cfg Config) (core.Result, error) {
	return core.RunWith(ctx, mpi.NewWorld(P), g, cfg.Tracer, func(_ context.Context, d *dgraph.DGraph) ([]int64, core.Stats, error) {
		return PartitionDistributed(d, cfg)
	})
}
