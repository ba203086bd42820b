// Package core implements ParHIP, the overall parallel system of the paper
// (§IV-E): recursive parallel cluster coarsening, initial partitioning of
// the replicated coarsest graph by the distributed evolutionary algorithm
// KaFFPaE, parallel uncoarsening with size-constrained label propagation as
// local search, and iterated V-cycles.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/arena"
	"repro/internal/contract"
	"repro/internal/dgraph"
	"repro/internal/evo"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/mpi/transport"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/sclp"
)

// Phase identifies what part of the multilevel pipeline a Progress event
// was emitted from.
type Phase string

// Phases of one V-cycle, plus the terminal "done" event.
const (
	PhaseCoarsen   Phase = "coarsen"
	PhaseInit      Phase = "init"
	PhaseRefine    Phase = "refine"
	PhaseRebalance Phase = "rebalance"
	PhaseDone      Phase = "done"
)

// Progress is one checkpoint of a running partition, delivered to
// Config.OnProgress on rank 0. Cut and Imbalance are -1 when the phase has
// not computed them (coarsening tracks graph shrinkage, not quality).
type Progress struct {
	Phase     Phase
	Cycle     int // V-cycle index, 0-based
	Cycles    int // total V-cycles configured
	Level     int // hierarchy level: 0 = finest/input graph
	N, M      int64
	Cut       int64
	Imbalance float64
	// Elapsed is the time so far of the run's core.partition span.
	Elapsed time.Duration
	// CommMsgs and CommBytes are the whole-world traffic accumulated since
	// the run started (a monotone counter snapshot, not a per-phase delta),
	// so live observers can watch communication volume grow phase by phase.
	CommMsgs  int64
	CommBytes int64
}

// GraphClass selects the coarsening size-constraint factor f (§V-A: 14 on
// social networks and web graphs, 20000 on mesh type networks).
type GraphClass int

// Graph classes.
const (
	ClassSocial GraphClass = iota
	ClassMesh
)

// Settings with one value in use (§V-A).
const (
	// coarsenIters is the label propagation iteration count during
	// coarsening (paper: 3; RefineIters, 6, is a Config field).
	coarsenIters = 3
	// coarsenAvgFloor: no level's cluster bound is below this many average
	// node weights. At 3, two average nodes fit with room for a third, so
	// a level shrinks ~2.3x, as matching does; 2 gives ~1.45x (DESIGN §13).
	coarsenAvgFloor = 3
	// coarsestPerBlock stops coarsening once GlobalN <= coarsestPerBlock*K
	// (the paper uses 10000*k at web scale; this is the reduced-scale
	// value). minCoarsest is an absolute floor.
	coarsestPerBlock = 100
	minCoarsest      = 300
	// evoPopulation is KaFFPaE's population size per rank on the coarsest
	// graph.
	evoPopulation = 3
	// phasesPerRound is the label propagation communication granularity.
	phasesPerRound = 8
)

// Config parameterizes a ParHIP run.
type Config struct {
	K   int32
	Eps float64

	// Class picks the default SizeFactor; SizeFactor overrides when > 0.
	Class      GraphClass
	SizeFactor float64

	// RefineIters is the label propagation iteration count during
	// uncoarsening (paper: 6).
	RefineIters int

	// VCycles is the number of multilevel iterations (fast 2, eco 5,
	// minimal 1).
	VCycles int

	// EvoRounds controls KaFFPaE on the coarsest graph; 0 computes only
	// the initial population (fast/minimal). EvoTimeBudget, when positive,
	// replaces EvoRounds by a wall-clock budget divided by the number of
	// PEs (eco: t_p = t_1/p).
	EvoRounds     int
	EvoTimeBudget time.Duration

	// Objective is the fitness the evolutionary algorithm minimizes on the
	// coarsest graph (§VI extension; default: edge cut). Label propagation
	// refinement remains cut-driven.
	Objective evo.Objective

	// Previous, when non-nil (one block per global node), makes the run a
	// repartitioning run. It is fed into the first V-cycle exactly like the
	// previous cycle's solution: cut edges survive coarsening and the
	// evolutionary population is seeded with it, so the result is never
	// worse (§VI: "This prepartition could be directly fed into the first
	// V-cycle and consecutively be improved"). It must be a feasible k-way
	// partition. It is also the migration reference that makes the whole
	// pipeline migration-aware: it is lifted through the hierarchy
	// alongside the solution, label propagation refinement keeps nodes on
	// their previous block when a move is cut-neutral (sclp move penalty),
	// the coarsest-level evolutionary selection breaks fitness ties in
	// favour of fewer moves, and Stats reports MigratedNodes and
	// MigrationVolume against it.
	Previous partition.Partition

	// Seed drives all randomness (identical value on every rank).
	Seed uint64

	// OnProgress, when non-nil, receives checkpoint events (one per
	// coarsening/refinement level plus phase transitions) on rank 0 only.
	// It must be set — or left nil — identically on every rank: refinement
	// checkpoints compute the current cut and block weights, which are
	// collectives, so a mixed configuration deadlocks. The callback runs on
	// rank 0's goroutine and must not block for long.
	OnProgress func(Progress)

	// Tracer, when non-nil, records per-rank spans across the whole run:
	// pipeline phases and levels here, sclp supersteps, and mpi exchanges
	// (RunOn attaches it to the world). Nil — the default — records
	// nothing; the spans still time the run for Stats. Must be identical
	// on every rank.
	Tracer *obs.Tracer
}

func (c *Config) normalize() {
	if c.Eps <= 0 {
		c.Eps = 0.03
	}
	if c.SizeFactor <= 0 {
		if c.Class == ClassMesh {
			c.SizeFactor = 20000
		} else {
			c.SizeFactor = 14
		}
	}
	if c.RefineIters <= 0 {
		c.RefineIters = 6
	}
	if c.VCycles <= 0 {
		c.VCycles = 1
	}
}

// FastConfig mirrors the paper's fast setting: 2 V-cycles, evolutionary
// algorithm computes the initial population only.
func FastConfig(k int32, class GraphClass) Config {
	return Config{K: k, Class: class, VCycles: 2, EvoRounds: 0, Seed: 1}
}

// EcoConfig mirrors the paper's eco setting: 5 V-cycles and an actual
// evolutionary search on the coarsest graph.
func EcoConfig(k int32, class GraphClass) Config {
	return Config{K: k, Class: class, VCycles: 5, EvoRounds: 3, Seed: 1}
}

// MinimalConfig mirrors the paper's minimal variant: a single V-cycle.
func MinimalConfig(k int32, class GraphClass) Config {
	return Config{K: k, Class: class, VCycles: 1, EvoRounds: 0, Seed: 1}
}

// LevelStat records one hierarchy level of the first V-cycle.
type LevelStat struct {
	N int64
	M int64
}

// Stats reports what a run did. Its times are rank 0's span durations
// (obs.Tracer.End returns them whether or not the run is traced): the sums
// of the core.coarsen, core.initial_partition, core.refine and
// core.rebalance spans, and the core.partition span for TotalTime.
type Stats struct {
	Levels      []LevelStat // fine-to-coarse, first V-cycle, incl. input
	CoarsenTime time.Duration
	InitTime    time.Duration
	RefineTime  time.Duration
	// RebalanceTime is the time spent in the explicit post-V-cycle
	// rebalancing stage (zero when the partition came out feasible).
	RebalanceTime time.Duration
	TotalTime     time.Duration
	Cut           int64
	Imbalance     float64
	// Lmax is the hard balance bound (1+eps)*ceil(c(V)/k) the run enforced;
	// MaxBlockWeight is the heaviest block of the result. Their difference
	// is the worst overload (<= 0 iff Feasible).
	Lmax           int64
	MaxBlockWeight int64
	// RebalanceMoves counts nodes moved by the explicit rebalance stage.
	RebalanceMoves int64
	// MigratedNodes and MigrationVolume report, for runs with a
	// Config.Previous, how many nodes ended on a different block than
	// before and their total node weight. Zero otherwise.
	MigratedNodes   int64
	MigrationVolume int64
	Feasible        bool
	// Par reports this rank's superstep measurements: the superstep count,
	// their wall-clock time and the exact evaluation counts (see
	// sclp.ParStats).
	Par  sclp.ParStats
	Comm mpi.Stats // whole-world traffic (filled by RunWith)
	// Transport is the transport-level counter snapshot of the ranks this
	// process hosts (filled by RunWith alongside Comm). On the in-process
	// backend its frames and bytes equal Comm's messages and bytes, one
	// frame per message; on TCP it counts this process's frames and the
	// wire bytes they took, framing included.
	Transport transport.Stats
}

// WorstOverload returns by how much the heaviest block exceeds Lmax
// (0 for feasible results).
func (s Stats) WorstOverload() int64 {
	if over := s.MaxBlockWeight - s.Lmax; over > 0 {
		return over
	}
	return 0
}

// levelRec keeps the objects needed to walk back up the hierarchy.
type levelRec struct {
	fine         *dgraph.DGraph
	coarse       *dgraph.DGraph
	fineToCoarse []int64
	// prevFine is the previous partition projected onto fine (NTotal
	// entries), kept only for migration-aware runs so refinement at this
	// level can apply the move penalty.
	prevFine []int64
}

// PartitionDistributed runs ParHIP on an already distributed graph and
// returns this rank's NTotal-length block assignment (ghosts synced)
// together with run statistics. Collective; cfg must be identical on every
// rank.
//
// Cancellation contract: a run stops only through the mpi world's abort
// (see mpi.World.Abort). Callers running their own world must pair a
// non-background ctx with mpi.World.WatchContext, as RunWith does: the
// cancellation then aborts the world, every collective wakes on the abort
// and every sclp superstep checks it, so a rank never runs more than
// roughly one superstep past cancellation and unwinds through the abort
// panic that mpi.World.Run swallows. Only the evolutionary search, whose
// local loop has no collective to unwind, reads ctx itself (a collective
// stop vote). RunWith turns the unwinding into ctx.Err().
func PartitionDistributed(ctx context.Context, d *dgraph.DGraph, cfg Config) ([]int64, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.K < 1 {
		return nil, Stats{}, fmt.Errorf("core: k = %d", cfg.K)
	}
	cfg.normalize()
	c := d.Comm
	tr, rank := c.Tracer(), c.Rank()
	// Every time the run reports comes from a span: the span times itself
	// on a nil tracer too.
	spRun := tr.Begin(rank, "core.partition")
	// report emits a progress checkpoint on rank 0. Callers must compute
	// any collective quantities (cut, block weights) on every rank before
	// calling it.
	report := func(p Progress) {
		if cfg.OnProgress == nil || rank != 0 {
			return
		}
		p.Cycles = cfg.VCycles
		p.Elapsed = spRun.Elapsed()
		// WorldStats reads atomics only — no collective, safe on rank 0 alone.
		ws := c.WorldStats()
		p.CommMsgs = ws.MessagesSent
		p.CommBytes = ws.BytesSent()
		cfg.OnProgress(p)
	}
	var st Stats
	totalWeight := d.GlobalNodeWeight()
	lmax := partition.Lmax(totalWeight, cfg.K, cfg.Eps)
	imbalanceOf := func(mx int64) float64 {
		return float64(mx)/(float64(totalWeight)/float64(cfg.K)) - 1
	}
	if cfg.K == 1 {
		part := make([]int64, d.NTotal())
		st.Feasible = true
		st.MaxBlockWeight = totalWeight
		st.Lmax = lmax
		st.Imbalance = imbalanceOf(totalWeight)
		st.TotalTime = tr.End1(spRun, "cut", 0)
		report(Progress{Phase: PhaseDone, Cycle: cfg.VCycles - 1, Level: 0,
			N: d.GlobalN, M: d.GlobalM, Cut: 0, Imbalance: st.Imbalance})
		return part, st, nil
	}
	// Scratch arena for the supersteps, reset between pipeline stages, so
	// per-level scratch recycles instead of reallocating.
	ar := arena.New()
	// Shared stream: identical on every rank, used for cross-rank-consistent
	// decisions (level seeds, the per-cycle size factor f).
	shared := rng.New(cfg.Seed)
	coarsestLimit := max(coarsestPerBlock*int64(cfg.K), minCoarsest)
	maxNW := d.MaxNodeWeightGlobal()

	// prevFine is the migration reference on the finest level; when set it
	// is lifted through every hierarchy alongside the solution so each
	// refinement level can apply the move penalty against it.
	var prevFine []int64
	if cfg.Previous != nil {
		if int64(len(cfg.Previous)) != d.GlobalN {
			return nil, Stats{}, fmt.Errorf("core: previous partition has %d entries for %d nodes",
				len(cfg.Previous), d.GlobalN)
		}
		prevFine = d.Localize(cfg.Previous)
	}
	// part is the current partition on the finest level (NTotal, synced).
	// The first V-cycle starts from the previous partition; every cycle
	// replaces part instead of writing into it, so prevFine stays intact.
	part := prevFine
	for cycle := 0; cycle < cfg.VCycles; cycle++ {
		f := cfg.SizeFactor
		if cycle > 0 {
			// Later V-cycles diversify with a random factor f in [10, 25]
			// (§V-A); drawn from the shared stream so all ranks agree.
			f = float64(shared.IntRange(10, 25))
		}
		u := int64(float64(lmax) / f)
		if u < maxNW {
			u = maxNW
		}

		// --- Parallel coarsening ---
		spCoarsen := tr.Begin(rank, "core.coarsen")
		cur := d
		var constraint []int64
		if part != nil {
			constraint = part
		}
		// prevCur tracks the migration reference at the current level; it is
		// lifted in lockstep with the coarsening (rank-consistent: every
		// rank agrees on whether the extra ParLift collective runs).
		prevCur := prevFine
		prevTracksConstraint := cycle == 0 && prevCur != nil
		var levels []levelRec
		if cycle == 0 {
			st.Levels = append(st.Levels, LevelStat{N: d.GlobalN, M: d.GlobalM})
		}
		for cur.GlobalN > coarsestLimit {
			spLvl := tr.Begin(rank, "core.coarsen_level")
			labels := sclp.ParCluster(cur, sclp.ParClusterConfig{
				U:              clusterBound(u, totalWeight, cur.GlobalN),
				Iterations:     coarsenIters,
				DegreeOrder:    true,
				PhasesPerRound: phasesPerRound,
				Constraint:     constraint,
				Seed:           shared.Uint64(),
				Arena:          ar,
				Stats:          &st.Par,
			})
			res := contract.ParContractWith(cur, labels, contract.ContractOptions{Arena: ar})
			tr.End3(spLvl, "level", int64(len(levels)), "coarse_n", res.Coarse.GlobalN, "heap_mb", tr.HeapMB())
			// The level's sclp/contract scratch is dead; recycle the slabs.
			ar.Reset()
			if res.Coarse.GlobalN >= cur.GlobalN*19/20 {
				break // coarsening stalled
			}
			if constraint != nil {
				constraint = contract.ParLift(cur, res.Coarse, res.FineToCoarse, constraint)
			}
			rec := levelRec{fine: cur, coarse: res.Coarse, fineToCoarse: res.FineToCoarse}
			if prevCur != nil {
				rec.prevFine = prevCur
				if prevTracksConstraint {
					// First V-cycle of a repartition run: the constraint IS the
					// previous partition, so reuse its lift instead of paying a
					// second collective.
					prevCur = constraint
				} else {
					prevCur = contract.ParLift(cur, res.Coarse, res.FineToCoarse, prevCur)
				}
			}
			levels = append(levels, rec)
			cur = res.Coarse
			if cycle == 0 {
				st.Levels = append(st.Levels, LevelStat{N: cur.GlobalN, M: cur.GlobalM})
			}
			report(Progress{Phase: PhaseCoarsen, Cycle: cycle, Level: len(levels),
				N: cur.GlobalN, M: cur.GlobalM, Cut: -1, Imbalance: -1})
		}
		st.CoarsenTime += tr.End1(spCoarsen, "cycle", int64(cycle))

		// --- Initial partitioning: replicate coarsest graph, run KaFFPaE ---
		spInit := tr.Begin(rank, "core.initial_partition")
		coarsest := cur.Gather()
		var initial partition.Partition
		if constraint != nil {
			initial = cur.GatherPartition(constraint)
		}
		evoCfg := evo.DefaultConfig(cfg.K)
		evoCfg.Eps = cfg.Eps
		evoCfg.PopulationSize = evoPopulation
		evoCfg.Rounds = cfg.EvoRounds
		evoCfg.Seed = shared.Uint64()
		evoCfg.Initial = initial
		evoCfg.Objective = cfg.Objective
		if prevCur != nil {
			// Migration-aware selection on the coarsest graph: fitness ties go
			// to the individual closer to the previous partition.
			if prevTracksConstraint {
				evoCfg.MigrationRef = initial
			} else {
				evoCfg.MigrationRef = cur.GatherPartition(prevCur)
			}
		}
		if cfg.EvoTimeBudget > 0 {
			evoCfg.TimeBudget = cfg.EvoTimeBudget / time.Duration(c.Size())
		}
		best := evo.Evolve(ctx, c, coarsest, evoCfg)
		if evoCfg.MigrationRef != nil {
			// Block IDs are arbitrary: a fresh evolutionary winner may be
			// structurally close to the previous partition yet label every
			// block differently, which would count as wholesale migration.
			// Relabel to maximize the weighted overlap with the reference
			// (deterministic, identical on every rank — the coarsest graph
			// is replicated) so the move penalty and the migration stats
			// measure real movement, not label permutation.
			remapBlocks(best, evoCfg.MigrationRef, cfg.K, coarsest.NW)
		}
		st.InitTime += tr.End3(spInit, "cycle", int64(cycle), "coarsest_n", int64(coarsest.NumNodes()), "heap_mb", tr.HeapMB())
		// The coarsest graph is replicated, so rank 0 can score the initial
		// partition locally — no collective needed.
		if cfg.OnProgress != nil && c.Rank() == 0 {
			report(Progress{Phase: PhaseInit, Cycle: cycle, Level: len(levels),
				N: int64(coarsest.NumNodes()), M: coarsest.NumEdges(),
				Cut:       partition.EdgeCut(coarsest, best),
				Imbalance: partition.Imbalance(coarsest, best, cfg.K)})
		}

		// --- Parallel uncoarsening with label propagation local search ---
		spRefine := tr.Begin(rank, "core.refine")
		curPart := cur.Localize(best)
		// Level len(levels) is the coarsest graph, which starts from the
		// initial partition; every finer level starts from the projection
		// of the coarser one.
		for i := len(levels); i >= 0; i-- {
			spRef := tr.Begin(rank, "core.refine_level")
			dg, prev := cur, prevCur
			if i < len(levels) {
				lv := levels[i]
				dg, prev = lv.fine, lv.prevFine
				curPart = contract.ParProject(lv.fine, lv.coarse, lv.fineToCoarse, curPart)
			}
			sclp.ParRefine(dg, curPart, sclp.ParRefineConfig{
				K: cfg.K, Lmax: lmax, Iterations: cfg.RefineIters,
				PhasesPerRound: phasesPerRound, Seed: shared.Uint64(),
				Prev: prev, Arena: ar, Stats: &st.Par,
			})
			tr.End2(spRef, "level", int64(i), "heap_mb", tr.HeapMB())
			ar.Reset()
			// The checkpoint's cut and imbalance are collectives, run on
			// every rank: OnProgress is rank-consistent by the Config
			// contract.
			if cfg.OnProgress != nil {
				cut := dg.EdgeCut(curPart)
				mx := slices.Max(dg.BlockWeights(curPart, cfg.K))
				report(Progress{Phase: PhaseRefine, Cycle: cycle, Level: i,
					N: dg.GlobalN, M: dg.GlobalM, Cut: cut, Imbalance: imbalanceOf(mx)})
			}
		}
		st.RefineTime += tr.End1(spRefine, "cycle", int64(cycle))
		part = curPart
	}

	mx := slices.Max(d.BlockWeights(part, cfg.K))

	// Feasibility is a postcondition, not a report: when refinement left a
	// block over Lmax, run the dedicated distributed rebalancing stage.
	// (The check is rank-consistent: BlockWeights is an allreduce.)
	if mx > lmax {
		spReb := tr.Begin(rank, "core.rebalance")
		st.RebalanceMoves, _ = sclp.ParRebalance(d, part, sclp.ParRebalanceConfig{
			K: cfg.K, Lmax: lmax,
		})
		st.RebalanceTime = tr.End1(spReb, "moves", st.RebalanceMoves)
		mx = slices.Max(d.BlockWeights(part, cfg.K))
		report(Progress{Phase: PhaseRebalance, Cycle: cfg.VCycles - 1, Level: 0,
			N: d.GlobalN, M: d.GlobalM, Cut: -1, Imbalance: imbalanceOf(mx)})
	}

	st.Cut = d.EdgeCut(part)
	st.Lmax = lmax
	st.MaxBlockWeight = mx
	st.Imbalance = imbalanceOf(mx)
	st.Feasible = mx <= lmax
	if prevFine != nil {
		var movedN, movedW int64
		for v := int32(0); v < d.NLocal(); v++ {
			if part[v] != prevFine[v] {
				movedN++
				movedW += d.NW[v]
			}
		}
		st.MigratedNodes = d.Comm.AllreduceSum1(movedN)
		st.MigrationVolume = d.Comm.AllreduceSum1(movedW)
	}
	st.TotalTime = tr.End1(spRun, "cut", st.Cut)
	report(Progress{Phase: PhaseDone, Cycle: cfg.VCycles - 1, Level: 0,
		N: d.GlobalN, M: d.GlobalM, Cut: st.Cut, Imbalance: st.Imbalance})
	return part, st, nil
}

// remapBlocks relabels p's blocks in place to maximize the node-weighted
// agreement with ref: the (block, ref-block) pairs are claimed greedily by
// descending overlap weight, and blocks left over keep distinct unused
// labels in ascending order. Deterministic in its inputs.
func remapBlocks(p, ref []int32, k int32, nw []int64) {
	type pair struct {
		w        int64
		from, to int32
	}
	overlap := make([]int64, int(k)*int(k))
	for v := range p {
		overlap[int(p[v])*int(k)+int(ref[v])] += nw[v]
	}
	pairs := make([]pair, 0, len(overlap))
	for i, w := range overlap {
		if w > 0 {
			pairs = append(pairs, pair{w, int32(i / int(k)), int32(i % int(k))})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		if pairs[i].from != pairs[j].from {
			return pairs[i].from < pairs[j].from
		}
		return pairs[i].to < pairs[j].to
	})
	mapping := make([]int32, k)
	fromUsed := make([]bool, k)
	toUsed := make([]bool, k)
	for i := range mapping {
		mapping[i] = -1
	}
	for _, pr := range pairs {
		if fromUsed[pr.from] || toUsed[pr.to] {
			continue
		}
		mapping[pr.from] = pr.to
		fromUsed[pr.from], toUsed[pr.to] = true, true
	}
	next := int32(0)
	for from := int32(0); from < k; from++ {
		if mapping[from] >= 0 {
			continue
		}
		for toUsed[next] {
			next++
		}
		mapping[from] = next
		toUsed[next] = true
	}
	for v := range p {
		p[v] = mapping[p[v]]
	}
}

// clusterBound is max(u, ⌊3w/n⌋) for a level of n nodes of total weight w,
// both global; the product is split so that it cannot overflow.
func clusterBound(u, w, n int64) int64 {
	return max(u, coarsenAvgFloor*(w/n)+coarsenAvgFloor*(w%n)/n)
}

// Result is the outcome of a replicated-input run.
type Result struct {
	Part  partition.Partition
	Stats Stats
}

// RunOn partitions g on the ranks of world and returns the full partition
// and the statistics observed on rank 0. In-process callers pass
// mpi.NewWorld(P). With a networked transport the world hosts a subset of
// the ranks (for TCP, one per process); every process calls RunOn with the
// same graph and config. The run, cancellation and failure contract is
// RunWith's.
func RunOn(ctx context.Context, world *mpi.World, g *graph.Graph, cfg Config) (Result, error) {
	return RunWith(ctx, world, g, cfg.Tracer, func(ctx context.Context, d *dgraph.DGraph) ([]int64, Stats, error) {
		return PartitionDistributed(ctx, d, cfg)
	})
}

// RunWith is the one runner between the ranks of world and a caller. Every
// rank distributes the replicated g, runs the collective fn on its share
// and sends its share of the partition to rank 0; the process hosting
// rank 0 receives the full partition, rank 0's statistics and the world's
// traffic counters (the others get a zero Result and a nil error). A
// process succeeds when rank 0 has released every rank it hosts, which it
// does once it holds every share. When ctx is
// cancelled or its deadline passes, every rank unwinds cooperatively (no
// goroutine outlives the call) and RunWith returns ctx.Err(); a run that
// completed before the cancellation was observed still returns its result.
// A transport failure — a peer process dying mid-run — aborts the world and
// surfaces as an error on every surviving process. The caller keeps
// ownership of the world and closes it after RunWith returns; on TCP a
// peer's close breaks the link, which is harmless once RunWith has
// returned there.
func RunWith(ctx context.Context, world *mpi.World, g *graph.Graph, tracer *obs.Tracer,
	fn func(context.Context, *dgraph.DGraph) ([]int64, Stats, error)) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var res Result
	var runErr error
	var finished atomic.Int64
	world.SetTracer(tracer)
	stop := world.WatchContext(ctx)
	defer stop()
	world.Run(func(c *mpi.Comm) {
		d := dgraph.FromGraph(c, g)
		part, st, err := fn(ctx, d)
		if err != nil {
			if c.Rank() == world.LocalRanks()[0] {
				runErr = err
			}
			return
		}
		parts := c.Gather(0, part[:d.NLocal()])
		if c.Rank() == 0 {
			st.Comm = world.TotalStats()
			st.Transport = world.TransportStats()
			res = Result{Part: partition.FromWords(parts...), Stats: st}
		}
		// Rank 0's release says it holds every share, so a share lost on
		// the wire fails its sender too.
		c.Bcast(0, nil)
		finished.Add(1)
		// On TCP a process that closes its world breaks its links, which
		// aborts every peer. This barrier keeps each process's links open
		// until every rank holds its release; its own last messages may be
		// cut short by a close, after every rank has finished.
		c.AllreduceSum1(0)
	})
	if runErr != nil {
		return Result{}, runErr
	}
	if finished.Load() == int64(len(world.LocalRanks())) {
		return res, nil
	}
	// Ranks cut short inside a collective unwind via the abort panic
	// without setting runErr; surface the transport failure or the
	// cancellation that stopped them.
	if err := world.Err(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	return Result{}, errors.New("core: the world was aborted before the run finished")
}
