// Package parhip is a Go reproduction of "Parallel Graph Partitioning for
// Complex Networks" (Meyerhenke, Sanders, Schulz, IPDPS 2015) — the system
// known as ParHIP.
//
// The package partitions an undirected graph into k blocks of nearly equal
// weight while minimizing the number (weight) of cut edges. It targets
// complex networks (social networks, web graphs) whose heavy-tailed degree
// distributions defeat classical matching-based multilevel partitioners,
// using parallel size-constrained label propagation for both coarsening and
// refinement, and a distributed evolutionary algorithm on the coarsest
// graph. Parallelism runs on simulated message-passing ranks (goroutines),
// standing in for the paper's MPI processes.
//
// Quick start:
//
//	b := parhip.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	b.AddEdge(2, 3)
//	p, err := parhip.New(b.Build(), parhip.WithK(2))
//	if err != nil { ... }
//	res, err := p.Run(ctx) // cancellable
//
// A run is bound to a context.Context: cancelling it (or letting its
// deadline pass) unwinds every simulated rank cooperatively and Run
// returns ctx.Err(). WithProgressFunc receives per-level checkpoint
// events while the run is in flight. A Partitioner holds only the graph
// and its settings, so Run may be called again, or concurrently.
//
// The package's Example functions show realistic scenarios.
package parhip

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/evo"
	"repro/internal/graph"
	"repro/internal/matchbase"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Graph is the CSR graph type accepted by the partitioner. Construct
// instances with NewBuilder or ReadMetis.
type Graph = graph.Graph

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// NewBuilder returns a builder for a graph with n nodes (unit weights by
// default).
func NewBuilder(n int32) *Builder { return graph.NewBuilder(n) }

// ReadMetis parses a graph in METIS format.
func ReadMetis(r io.Reader) (*Graph, error) { return graph.ReadMetis(r) }

// WriteMetis writes a graph in METIS format.
func WriteMetis(w io.Writer, g *Graph) error { return graph.WriteMetis(w, g) }

// ReadBinary parses a graph in the package's fast binary format.
func ReadBinary(r io.Reader) (*Graph, error) { return graph.ReadBinary(r) }

// WriteBinary writes a graph in the package's fast binary format.
func WriteBinary(w io.Writer, g *Graph) error { return graph.WriteBinary(w, g) }

// Mode selects the quality/time trade-off (§V-A of the paper).
type Mode int

// Modes. Fast performs two V-cycles with the evolutionary algorithm
// computing only its initial population; Eco performs five V-cycles with an
// actual evolutionary search; Minimal performs a single V-cycle.
const (
	Fast Mode = iota
	Eco
	Minimal
)

// GraphClass tells the coarsening which size-constraint factor to use.
type GraphClass = core.GraphClass

// Graph classes: social/web graphs use f=14, mesh-like graphs f=20000
// (§V-A).
const (
	Social = core.ClassSocial
	Mesh   = core.ClassMesh
)

// Tracer records per-rank spans of a partitioning run and serializes them
// as Chrome trace-event JSON (WriteJSON), openable in Perfetto or
// chrome://tracing with one track per simulated rank. Create one with
// NewTracer and attach it via WithTracer; a nil *Tracer is a valid,
// disabled tracer. The level and phase spans carry a heap_mb sample of
// the process's heap, and MaxArg("heap_mb") names the span of its peak.
type Tracer = obs.Tracer

// NewTracer returns an enabled tracer with one track per rank. Size it to
// the session's PE count (tracks beyond it stay empty; spans from ranks
// outside the range are dropped).
func NewTracer(ranks int) *Tracer { return obs.NewTracer(ranks) }

// Objective selects the optimization target of the coarsest-level
// evolutionary search (§VI extension).
type Objective = evo.Objective

// Objectives.
const (
	// MinimizeCut minimizes the total weight of cut edges (the paper's
	// objective, default).
	MinimizeCut = evo.ObjectiveCut
	// MinimizeCommVolume minimizes the total communication volume.
	MinimizeCommVolume = evo.ObjectiveCommVol
	// MinimizeMaxCommVolume minimizes the busiest block's volume.
	MinimizeMaxCommVolume = evo.ObjectiveMaxCommVol
	// MinimizeMaxQuotientDegree minimizes the maximum number of
	// neighbouring blocks.
	MinimizeMaxQuotientDegree = evo.ObjectiveMaxQuotientDegree
	// MinimizeMigration minimizes the number of nodes moved away from the
	// previous partition, breaking ties by edge cut. It requires a session
	// configured with WithPrevious (or Repartition); without a previous
	// partition there is nothing to stay close to and New rejects it.
	MinimizeMigration = evo.ObjectiveMigration
)

// Result of a partitioning run.
type Result struct {
	// Partition is the computed partition as a first-class value: block
	// assignment plus block weights, cut, feasibility and the graph
	// fingerprint, with serialization and migration planning attached.
	Partition *Partition
	// Cut is the weight of edges between different blocks.
	Cut int64
	// Imbalance is max block weight / average block weight - 1.
	Imbalance float64
	// Feasible reports whether every block respects (1+eps)*ceil(W/k).
	Feasible bool
	// Stats carries detailed level/timing/communication data; repartition
	// runs additionally fill Stats.MigratedNodes and Stats.MigrationVolume.
	Stats core.Stats
}

// resultOf turns a finished run on g into the public Result: the
// Partition value is built without re-deriving what the run already
// computed, and takes ownership of res.Part. Run and RunBaseline both
// return through it.
func resultOf(g *Graph, k int32, eps float64, res core.Result) Result {
	st := res.Stats
	p := &Partition{
		assign:       res.Part,
		k:            k,
		eps:          eps,
		fp:           fingerprintOf(g),
		hasDerived:   true,
		cut:          st.Cut,
		feasible:     st.Feasible,
		blockWeights: partition.BlockWeights(g, res.Part, k),
		nw:           g.NW,
	}
	return Result{Partition: p, Cut: st.Cut, Imbalance: st.Imbalance, Feasible: st.Feasible, Stats: st}
}

// RunBaseline computes a k-way partition with the ParMETIS-style
// matching-based baseline the paper compares against. memoryBudgetNodes
// bounds the size of the coarsest graph a PE may replicate (0 = unlimited);
// beyond it the run fails like ParMETIS running out of memory in the
// paper's tables. The options are validated exactly as by New; the
// baseline reads k, eps, seed, PEs and the tracer from them and has no use
// for the rest. When ctx is cancelled, the simulated ranks unwind
// cooperatively and it returns ctx.Err(). Its Result carries the same
// Stats detail (hierarchy levels, phase timings, balance bound,
// communication) as the main partitioner's, so bench comparisons against
// the baseline are apples-to-apples.
func RunBaseline(ctx context.Context, g *Graph, memoryBudgetNodes int64, opts ...Option) (Result, error) {
	if memoryBudgetNodes < 0 {
		return Result{}, fmt.Errorf("parhip: memoryBudgetNodes = %d, must be >= 0 (0 = unlimited)", memoryBudgetNodes)
	}
	s, err := resolve(g, opts)
	if err != nil {
		return Result{}, err
	}
	cfg := matchbase.DefaultConfig(s.k)
	cfg.Eps = s.eps
	cfg.Seed = s.seed
	cfg.MemoryBudgetNodes = memoryBudgetNodes
	cfg.Tracer = s.tracer
	res, err := matchbase.RunCtx(ctx, s.pes, g, cfg)
	if err != nil {
		return Result{}, err
	}
	return resultOf(g, s.k, cfg.Eps, res), nil
}

// Fingerprint returns a stable content hash of g: a SHA-256 (hex-encoded)
// over the CSR arrays and node/edge weights. Equal fingerprints mean
// byte-identical graph representations, which makes the fingerprint a safe
// cache key for partitioning results; the parhipd service keys its result
// cache on Fingerprint(g) plus the canonicalized job options.
func Fingerprint(g *Graph) string { return g.Fingerprint() }

// EdgeCut returns the weight of edges crossing between blocks of p. With
// IsFeasible it is the checker for an assignment that arrives as a raw
// slice (a wire payload, another tool's output); library results carry
// both precomputed in their Partition. It panics unless p has one entry
// per node of g.
func EdgeCut(g *Graph, p []int32) int64 {
	mustAssign("EdgeCut", g, len(p))
	return partition.EdgeCut(g, p)
}

// IsFeasible reports whether the raw assignment p respects the balance
// bound (1+eps)*ceil(W/k) for every block. An assignment that does not
// have one entry per node of g is not a feasible partition of g.
func IsFeasible(g *Graph, p []int32, k int32, eps float64) bool {
	return len(p) == int(g.NumNodes()) && partition.IsFeasible(g, p, k, eps)
}

// CommunicationVolume returns the total communication volume of the
// partition on g — for every node, the number of distinct foreign blocks
// among its neighbours. It panics unless g has one node per entry of the
// assignment.
func (p *Partition) CommunicationVolume(g *Graph) int64 {
	mustAssign("CommunicationVolume", g, len(p.assign))
	return partition.CommunicationVolume(g, p.assign, p.k)
}

// mustAssign panics unless an assignment of n entries covers g's nodes: the
// checkers index it by g's node IDs, so any other size is a caller's bug.
func mustAssign(method string, g *Graph, n int) {
	if int(g.NumNodes()) != n {
		panic(fmt.Sprintf("parhip: %s: assignment has %d entries, graph has %d nodes", method, n, g.NumNodes()))
	}
}
