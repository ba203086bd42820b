// Package evo implements KaFFPaE (§II-C), the coarse-grained distributed
// evolutionary partitioner run on the (replicated) coarsest graph of the
// hierarchy.
//
// Every rank holds a copy of the graph and evolves a local population of
// partitions. The combine operation feeds two parents into the multilevel
// partitioner with their cut edges forbidden from contraction and the
// better parent applied at the coarsest level, which guarantees offspring
// at least as good as the better parent. Ranks exchange their best
// individual with random peers on a fixed schedule (rumor spreading); the
// globally best individual is selected collectively at the end.
package evo

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/kaffpa"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/rng"
)

// migrantTag is the user-message tag for exchanged individuals.
const migrantTag = 9100

// Objective selects the fitness the evolutionary search minimizes. The
// paper's evaluation uses the edge cut; §VI proposes integrating
// communication-volume style objectives "into the evolutionary algorithm
// which is called on the coarsest graph", which the other values realize.
type Objective int

// Objectives.
const (
	// ObjectiveCut minimizes the total weight of cut edges (default).
	ObjectiveCut Objective = iota
	// ObjectiveCommVol minimizes the total communication volume.
	ObjectiveCommVol
	// ObjectiveMaxCommVol minimizes the busiest block's communication
	// volume.
	ObjectiveMaxCommVol
	// ObjectiveMaxQuotientDegree minimizes the maximum number of
	// neighbouring blocks over all blocks.
	ObjectiveMaxQuotientDegree
	// ObjectiveMigration minimizes the number of nodes assigned differently
	// from Config.MigrationRef, breaking ties by edge cut — the
	// repartitioning objective. Requires MigrationRef.
	ObjectiveMigration
)

func (o Objective) value(g *graph.Graph, p []int32, k int32) int64 {
	switch o {
	case ObjectiveCommVol:
		return partition.CommunicationVolume(g, p, k)
	case ObjectiveMaxCommVol:
		return partition.MaxCommVolume(g, p, k)
	case ObjectiveMaxQuotientDegree:
		return int64(partition.MaxQuotientDegree(g, p, k))
	default:
		return partition.EdgeCut(g, p)
	}
}

// Config controls one evolutionary run.
type Config struct {
	K   int32
	Eps float64

	// PopulationSize is the number of individuals kept per rank.
	PopulationSize int
	// Rounds is the number of combine/mutation steps per rank. Zero means
	// "initial population only" — the paper's fast and minimal
	// configurations give the evolutionary algorithm "only enough time to
	// compute the initial population".
	Rounds int
	// TimeBudget optionally bounds the evolution by wall-clock time; when
	// positive it overrides Rounds (the paper's eco setting uses
	// t_p = t_1/p). It is the only input that makes the result depend on
	// timing: the ranks stop at the first step any of them is past it.
	TimeBudget time.Duration
	// MutationProb is the probability that a step runs a fresh multilevel
	// partition instead of a combine.
	MutationProb float64
	// MigrateEvery controls rumor spreading: every MigrateEvery steps each
	// rank sends its best s ranks ahead and takes one from s ranks behind,
	// s in [1, P) drawn from a stream all ranks share (0 disables).
	MigrateEvery int
	// Seed drives all randomness; each rank derives an independent stream.
	Seed uint64
	// Initial optionally seeds the population with a known partition
	// (V-cycles inject the projected previous solution, ensuring the
	// result is at least as good).
	//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
	Initial []int32
	// Objective is the fitness to minimize (default: edge cut). Combine
	// operators still optimize the cut internally (their no-worsening
	// guarantee is cut-based); selection and migration use the objective.
	Objective Objective
	// MigrationRef, when non-nil (one block per node), makes selection
	// migration-aware: individuals that agree with the reference on more
	// nodes win objective ties (the MinimizeMigration "component" of the
	// repartitioning path). Under ObjectiveMigration the divergence from
	// the reference is the primary fitness and the cut breaks ties.
	//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
	MigrationRef []int32
}

// DefaultConfig returns sensible defaults for a k-way evolution.
func DefaultConfig(k int32) Config {
	return Config{
		K:              k,
		Eps:            0.03,
		PopulationSize: 4,
		Rounds:         4,
		MutationProb:   0.1,
		MigrateEvery:   2,
		Seed:           1,
	}
}

type individual struct {
	p []int32
	// primary is the objective value (edge cut under the default
	// objective; divergence from the migration reference under
	// ObjectiveMigration). secondary breaks primary ties: the migration
	// count when a reference is configured (0 otherwise), or the cut under
	// ObjectiveMigration.
	primary   int64
	secondary int64
	feasible  bool
}

// better reports whether a beats b (feasibility first, then the primary
// objective, then the migration/cut tie-break).
func better(a, b individual) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.primary != b.primary {
		return a.primary < b.primary
	}
	return a.secondary < b.secondary
}

// divergence counts the nodes p assigns differently from ref.
func divergence(p, ref []int32) int64 {
	var d int64
	for i := range p {
		if p[i] != ref[i] {
			d++
		}
	}
	return d
}

func evaluate(g *graph.Graph, p []int32, cfg Config) individual {
	ind := individual{
		p:        p,
		feasible: partition.IsFeasible(g, p, cfg.K, cfg.Eps),
	}
	if cfg.Objective == ObjectiveMigration {
		ind.primary = divergence(p, cfg.MigrationRef)
		ind.secondary = partition.EdgeCut(g, p)
		return ind
	}
	ind.primary = cfg.Objective.value(g, p, cfg.K)
	if cfg.MigrationRef != nil {
		ind.secondary = divergence(p, cfg.MigrationRef)
	}
	return ind
}

// Evolve runs the evolutionary algorithm and returns the globally best
// partition, identical on every rank. Collective.
//
// Evolve honors ctx deadlines cooperatively: the search loop stops starting
// new combine/mutation steps once ctx is done on any rank (a collective vote
// per step; each step is a full multilevel partition) and proceeds straight
// to the collective selection of the best individual found so far.
// When the surrounding world is additionally aborted (mpi.World.Abort /
// WatchContext, as core.RunOn arranges), the selection collectives unwind
// instead of completing — ctx alone degrades gracefully, ctx + abort
// cancels hard.
//
//parhip:collective
//lint:rawslice-ok internal SPMD plumbing: the raw assignment slice is the working representation; wrapped in *parhip.Partition at the public boundary
func Evolve(ctx context.Context, c *mpi.Comm, g *graph.Graph, cfg Config) []int32 {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Objective == ObjectiveMigration && cfg.MigrationRef == nil {
		panic("evo: ObjectiveMigration requires Config.MigrationRef")
	}
	if cfg.PopulationSize < 2 {
		cfg.PopulationSize = 2
	}
	if cfg.Eps <= 0 {
		cfg.Eps = 0.03
	}
	r := rng.New(cfg.Seed).Split(uint64(c.Rank()))

	base := kaffpa.DefaultConfig(cfg.K)
	base.Eps = cfg.Eps

	pop := make([]individual, 0, cfg.PopulationSize)
	if cfg.Initial != nil {
		pop = append(pop, evaluate(g, append([]int32(nil), cfg.Initial...), cfg))
	}
	for len(pop) < cfg.PopulationSize {
		if len(pop) > 0 && ctx.Err() != nil {
			break // cancelled: one individual is enough to select from
		}
		kc := base
		kc.Seed = r.Uint64()
		p, err := kaffpa.Partition(g, kc)
		if err != nil {
			panic("evo: " + err.Error())
		}
		pop = append(pop, evaluate(g, p, cfg))
	}

	bestIdx := func() int {
		b := 0
		for i := 1; i < len(pop); i++ {
			if better(pop[i], pop[b]) {
				b = i
			}
		}
		return b
	}
	worstIdx := func() int {
		w := 0
		for i := 1; i < len(pop); i++ {
			if better(pop[w], pop[i]) {
				w = i
			}
		}
		return w
	}
	insert := func(ind individual) {
		w := worstIdx()
		if better(ind, pop[w]) {
			pop[w] = ind
		}
	}

	// shared is identical on every rank, so all draw the same shifts.
	shared := rng.New(cfg.Seed)
	start := time.Now() //lint:determinism-ok wall-clock search budget is part of the Evolve contract
	for step := 1; cfg.TimeBudget > 0 || step <= cfg.Rounds; step++ {
		// One stop vote per step keeps every rank on the same step count, so
		// the blocking migrant receive below never waits on a stopped rank.
		stop := ctx.Err() != nil || (cfg.TimeBudget > 0 && time.Since(start) >= cfg.TimeBudget) //lint:determinism-ok wall-clock search budget is part of the Evolve contract; the vote is collective
		if c.AllreduceMax1(boolTo64(stop)) != 0 {
			break // deadline/cancel/budget: select among what we have
		}

		if size := c.Size(); size > 1 && cfg.MigrateEvery > 0 && step%cfg.MigrateEvery == 0 {
			// Rumor spreading on a fixed schedule: the best goes s ranks
			// ahead, and the migrant from s ranks behind joins this step.
			s := 1 + shared.Intn(size-1)
			c.Send((c.Rank()+s)%size, migrantTag, toWire(pop[bestIdx()].p))
			insert(evaluate(g, fromWire(c.Recv((c.Rank()-s+size)%size, migrantTag)), cfg))
		}

		if r.Float64() < cfg.MutationProb {
			kc := base
			kc.Seed = r.Uint64()
			p, _ := kaffpa.Partition(g, kc)
			insert(evaluate(g, p, cfg))
			continue
		}

		// Combine two distinct parents.
		i := r.Intn(len(pop))
		j := r.Intn(len(pop) - 1)
		if j >= i {
			j++
		}
		p1, p2 := pop[i], pop[j]
		parent := p1
		if better(p2, p1) {
			parent = p2
		}
		kc := base
		kc.Seed = r.Uint64()
		kc.Constraint = kaffpa.CompositeConstraint(p1.p, p2.p, cfg.K)
		kc.InitialPartition = parent.p
		child, err := kaffpa.Partition(g, kc)
		if err != nil {
			panic("evo: " + err.Error())
		}
		insert(evaluate(g, child, cfg))
	}

	best := pop[bestIdx()]
	// Rank the local champions: (infeasible flag, primary, secondary, rank)
	// ascending — the same order better uses locally.
	scores := c.Allgatherv([]int64{boolTo64(!best.feasible), best.primary, best.secondary})
	winner := 0
	for rk := 1; rk < len(scores); rk++ {
		for f := 0; f < 3; f++ {
			if scores[rk][f] != scores[winner][f] {
				if scores[rk][f] < scores[winner][f] {
					winner = rk
				}
				break
			}
		}
	}
	var wire []int64
	if c.Rank() == winner {
		wire = toWire(best.p)
	}
	return fromWire(c.Bcast(winner, wire))
}

func toWire(p []int32) []int64 {
	out := make([]int64, len(p))
	for i, v := range p {
		out[i] = int64(v)
	}
	return out
}

func fromWire(w []int64) []int32 {
	out := make([]int32, len(w))
	for i, v := range w {
		out[i] = int32(v)
	}
	return out
}

func boolTo64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
