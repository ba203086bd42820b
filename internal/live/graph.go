// Package live implements server-side mutable graphs for the streaming
// ingestion + continuous repartitioning subsystem: a compact delta overlay
// (edge adds/removes, node adds, weight updates) layered over an immutable
// CSR base graph, with sequence-numbered idempotent batch application,
// churn and imbalance accounting since the last partition, epoch-stamped
// placement snapshots served lock-free, and a Controller policy engine
// that decides when accumulated drift warrants an automatic repartition.
//
// The division of labor with internal/server: this package owns the data
// structure and the policy (both pure, deterministic, unit-testable);
// the server owns scheduling — it applies client batches, consults the
// Controller, enqueues Repartition jobs on materialized snapshots and
// swaps finished partitions back in with CompleteRepartition.
package live

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Op identifies a mutation kind.
type Op uint8

// Mutation kinds accepted by ApplyBatch.
const (
	// OpAddEdge inserts the undirected edge {U, V} with weight W (0 means
	// 1). Adding an edge that already exists merges by summing weights; a
	// merge that would pass MaxInt64 rejects the batch.
	OpAddEdge Op = iota + 1
	// OpRemoveEdge removes the undirected edge {U, V}. Removing an absent
	// edge is a no-op, not an error (streams may race their own removals).
	OpRemoveEdge
	// OpAddNode appends one node with weight W (0 means 1). U and V are
	// ignored; the new node's ID is the node count before the append.
	OpAddNode
	// OpSetNodeWeight sets node U's weight to W (> 0 required).
	OpSetNodeWeight
)

// String returns the wire name of the op.
func (o Op) String() string {
	switch o {
	case OpAddEdge:
		return "add_edge"
	case OpRemoveEdge:
		return "remove_edge"
	case OpAddNode:
		return "add_node"
	case OpSetNodeWeight:
		return "set_node_weight"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Delta is one mutation. See the Op constants for field semantics.
type Delta struct {
	Op   Op
	U, V graph.NodeID
	W    int64
}

// ErrSequenceGap is returned by ApplyBatch when a batch arrives with a
// sequence number beyond the next expected one — the client lost a batch
// and must resend from the gap.
var ErrSequenceGap = errors.New("live: sequence gap")

// ErrRepartitionInFlight is returned by BeginRepartition while a previous
// snapshot has not been completed or aborted.
var ErrRepartitionInFlight = errors.New("live: repartition already in flight")

// edgeState is the overlay entry for one touched undirected edge: its
// current effective weight (0 = absent) and whether the base CSR carries
// the edge (so Materialize knows which loop emits it).
type edgeState struct {
	eff    int64
	inBase bool
}

// Graph is a mutable graph: an immutable CSR base plus a compact overlay
// of touched edges, node-weight overrides and appended nodes. All mutation
// goes through ApplyBatch under an internal mutex; placement lookups are
// served lock-free from an atomically swapped epoch-stamped snapshot, so
// reads stay cheap during delta application and repartition swaps.
type Graph struct {
	mu   sync.Mutex
	base *graph.Graph
	// baseN/baseM are the base graph's node/edge counts (immutable).
	baseN int32
	baseM int64

	overlay map[uint64]edgeState   // guarded by mu: graph.EdgeKey -> state
	nwOver  map[graph.NodeID]int64 // guarded by mu: base-node weight overrides
	extraNW []int64                // guarded by mu: weights of appended nodes
	n       int32                  // guarded by mu: current node count
	curM    int64                  // guarded by mu: current undirected edge count
	lastSeq int64                  // guarded by mu: highest applied batch sequence

	// Churn accounting since the last snapshot handed to a repartition
	// (BeginRepartition zeroes these into marks; Abort restores them).
	edgeAdds      int64 // guarded by mu
	edgeRemoves   int64 // guarded by mu
	nodeAdds      int64 // guarded by mu
	weightChanges int64 // guarded by mu
	mAtSwap       int64 // guarded by mu: edge count at the last swap (churn denominator)

	inFlight bool     // guarded by mu: a BeginRepartition snapshot is outstanding
	marks    [4]int64 // guarded by mu: churn counters moved into the in-flight snapshot

	blockWeights []int64 // guarded by mu: live per-block node weight (nil before epoch 1)

	placement atomic.Pointer[Placement]

	tracer *obs.Tracer // set once before use; nil = disabled
}

// NewGraph wraps base (which must stay immutable — the overlay aliases it)
// into a live graph at sequence 0, epoch 0, with no placement.
func NewGraph(base *graph.Graph) *Graph {
	return &Graph{
		base:    base,
		baseN:   base.NumNodes(),
		baseM:   base.NumEdges(),
		overlay: make(map[uint64]edgeState),
		nwOver:  make(map[graph.NodeID]int64),
		n:       base.NumNodes(),
		curM:    base.NumEdges(),
		mAtSwap: base.NumEdges(),
	}
}

// SetTracer attaches a span tracer recording apply/materialize/swap spans
// on rank track 0. Call before the graph is shared; nil disables tracing.
func (g *Graph) SetTracer(t *obs.Tracer) { g.tracer = t }

// BatchResult reports what ApplyBatch did.
type BatchResult struct {
	// Replayed is true when the batch's sequence number was at or below
	// the last applied one: the batch was already incorporated (or is a
	// duplicate of one that was) and nothing was applied. Idempotent
	// retries land here.
	Replayed bool
	// Applied is the number of deltas applied (0 when Replayed).
	Applied int
	// Seq echoes the highest applied sequence number after the call.
	Seq int64
}

// ApplyBatch validates and applies one sequence-numbered batch of deltas.
// Batches must arrive with consecutive sequence numbers starting at 1;
// a batch at or below the last applied sequence is a no-op replay (retries
// are idempotent), a batch beyond the next expected number fails with
// ErrSequenceGap. Validation runs before any delta is applied, so a batch
// is applied atomically or not at all.
func (g *Graph) ApplyBatch(seq int64, deltas []Delta) (BatchResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq <= g.lastSeq {
		return BatchResult{Replayed: true, Seq: g.lastSeq}, nil
	}
	if seq != g.lastSeq+1 {
		return BatchResult{Seq: g.lastSeq}, fmt.Errorf("%w: got seq %d, want %d", ErrSequenceGap, seq, g.lastSeq+1)
	}
	if err := g.validateLocked(deltas); err != nil {
		return BatchResult{Seq: g.lastSeq}, err
	}
	sp := g.tracer.Begin(0, "live.apply_batch")
	for _, d := range deltas {
		g.applyLocked(d)
	}
	g.lastSeq = seq
	g.tracer.End3(sp, "deltas", int64(len(deltas)), "n", int64(g.n), "m", g.curM)
	return BatchResult{Applied: len(deltas), Seq: seq}, nil
}

// validateLocked checks every delta against the state the batch would see,
// including nodes added and edge weights merged earlier in the same batch.
//
//parhip:holds mu
func (g *Graph) validateLocked(deltas []Delta) error {
	simN := g.n
	eff := make(map[uint64]int64) // weight of each edge the batch touched
	for i, d := range deltas {
		switch d.Op {
		case OpAddEdge, OpRemoveEdge:
			if d.U < 0 || d.U >= simN || d.V < 0 || d.V >= simN {
				return fmt.Errorf("live: delta %d (%s): endpoint out of range: (%d,%d), n=%d", i, d.Op, d.U, d.V, simN)
			}
			if d.U == d.V {
				return fmt.Errorf("live: delta %d (%s): self-loop at node %d", i, d.Op, d.U)
			}
			if d.Op == OpAddEdge && d.W < 0 {
				return fmt.Errorf("live: delta %d (add_edge): negative weight %d", i, d.W)
			}
			key := graph.EdgeKey(d.U, d.V)
			w, ok := eff[key]
			if !ok {
				w = g.edgeStateLocked(d.U, d.V).eff
			}
			switch add := max(d.W, 1); {
			case d.Op == OpRemoveEdge:
				eff[key] = 0
			case w > math.MaxInt64-add:
				return fmt.Errorf("live: delta %d (add_edge): weight %d onto edge (%d,%d) of weight %d overflows int64", i, add, d.U, d.V, w)
			default:
				eff[key] = w + add
			}
		case OpAddNode:
			if d.W < 0 {
				return fmt.Errorf("live: delta %d (add_node): negative weight %d", i, d.W)
			}
			simN++
		case OpSetNodeWeight:
			if d.U < 0 || d.U >= simN {
				return fmt.Errorf("live: delta %d (set_node_weight): node %d out of range, n=%d", i, d.U, simN)
			}
			if d.W <= 0 {
				return fmt.Errorf("live: delta %d (set_node_weight): non-positive weight %d", i, d.W)
			}
		default:
			return fmt.Errorf("live: delta %d: unknown op %d", i, uint8(d.Op))
		}
	}
	return nil
}

// edgeStateLocked returns the current overlay state of {u, v}, consulting
// the base CSR on first touch.
//
//parhip:holds mu
func (g *Graph) edgeStateLocked(u, v graph.NodeID) edgeState {
	key := graph.EdgeKey(u, v)
	if st, ok := g.overlay[key]; ok {
		return st
	}
	if u < g.baseN && v < g.baseN {
		if w, ok := g.base.HasEdge(u, v); ok {
			return edgeState{eff: w, inBase: true}
		}
	}
	return edgeState{}
}

//parhip:holds mu
func (g *Graph) applyLocked(d Delta) {
	switch d.Op {
	case OpAddEdge:
		w := d.W
		if w == 0 {
			w = 1
		}
		st := g.edgeStateLocked(d.U, d.V)
		if st.eff == 0 {
			g.curM++
			g.edgeAdds++
		} else {
			g.weightChanges++ // merge onto an existing edge is a weight update
		}
		st.eff += w
		g.overlay[graph.EdgeKey(d.U, d.V)] = st
	case OpRemoveEdge:
		st := g.edgeStateLocked(d.U, d.V)
		if st.eff == 0 {
			return // absent: removal is a no-op
		}
		st.eff = 0
		g.overlay[graph.EdgeKey(d.U, d.V)] = st
		g.curM--
		g.edgeRemoves++
	case OpAddNode:
		w := d.W
		if w == 0 {
			w = 1
		}
		g.extraNW = append(g.extraNW, w)
		g.n++
		g.nodeAdds++
		g.placeNewNodeLocked(w)
	case OpSetNodeWeight:
		old := g.nodeWeightLocked(d.U)
		if d.U >= g.baseN {
			g.extraNW[d.U-g.baseN] = d.W
		} else {
			g.nwOver[d.U] = d.W
		}
		g.weightChanges++
		if p := g.placement.Load(); p != nil && g.blockWeights != nil {
			if b, ok := p.Block(d.U); ok {
				g.blockWeights[b] += d.W - old
			}
		}
	}
}

// placeNewNodeLocked provisionally assigns the just-appended node to the
// least-loaded block of the current placement (ties to the lowest block
// ID) and publishes a new snapshot carrying the extended extra table.
// Provisional placements are deterministic, answer lookups immediately,
// and are replaced by real assignments at the next epoch swap. Before the
// first partition there is nothing to extend.
//
//parhip:holds mu
func (g *Graph) placeNewNodeLocked(w int64) {
	p := g.placement.Load()
	if p == nil || g.blockWeights == nil {
		return
	}
	best := int32(0)
	for b := int32(1); b < int32(len(g.blockWeights)); b++ {
		if g.blockWeights[b] < g.blockWeights[best] {
			best = b
		}
	}
	g.blockWeights[best] += w
	next := &Placement{
		Epoch: p.Epoch,
		part:  p.part,
		extra: append(append([]int32(nil), p.extra...), best),
	}
	g.placement.Store(next)
}

// nodeWeightLocked returns node v's current weight.
//
//parhip:holds mu
func (g *Graph) nodeWeightLocked(v graph.NodeID) int64 {
	if v >= g.baseN {
		return g.extraNW[v-g.baseN]
	}
	if w, ok := g.nwOver[v]; ok {
		return w
	}
	return g.base.NW[v]
}

// Materialize compacts overlay + base into a fresh immutable CSR graph —
// the form the solver consumes. The result is deterministic: the Builder
// canonicalizes adjacency order, so overlay map iteration order never
// shows through.
func (g *Graph) Materialize() *graph.Graph {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.materializeLocked()
}

//parhip:holds mu
func (g *Graph) materializeLocked() *graph.Graph {
	sp := g.tracer.Begin(0, "live.materialize")
	b := graph.NewBuilder(g.n)
	for v := graph.NodeID(0); v < g.n; v++ {
		if w := g.nodeWeightLocked(v); w != 1 {
			b.SetNodeWeight(v, w)
		}
	}
	// Base edges, with overlay overrides.
	for v := graph.NodeID(0); v < g.baseN; v++ {
		ws := g.base.EdgeWeights(v)
		for i, u := range g.base.Neighbors(v) {
			if u <= v {
				continue
			}
			if st, ok := g.overlay[graph.EdgeKey(v, u)]; ok {
				if st.eff > 0 {
					b.AddEdgeW(v, u, st.eff)
				}
				continue
			}
			b.AddEdgeW(v, u, ws[i])
		}
	}
	// Overlay-only edges (pairs absent from the base CSR).
	for key, st := range g.overlay {
		if st.inBase || st.eff <= 0 {
			continue
		}
		u, v := graph.EdgeKeyEndpoints(key)
		b.AddEdgeW(u, v, st.eff)
	}
	mg := b.Build()
	g.tracer.End2(sp, "n", int64(mg.NumNodes()), "m", mg.NumEdges())
	return mg
}

// Snapshot is the frozen input of one repartition run: the materialized
// graph and, once an initial partition exists, the current placement
// lifted onto it as the previous partition (nil on the cold, first run).
type Snapshot struct {
	G    *graph.Graph
	Prev *parhip.Partition
	Seq  int64 // last applied batch sequence included in G
}

// BeginRepartition freezes the current state into a Snapshot for a solver
// run and moves the churn counters into the snapshot (they restart at
// zero, counting drift the run will not see). Only one snapshot may be
// outstanding; complete it with CompleteRepartition or return its churn
// with AbortRepartition. k and eps parameterize the previous partition
// lifted from the current placement; they are ignored on the cold first
// run (no placement yet).
func (g *Graph) BeginRepartition(k int32, eps float64) (*Snapshot, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inFlight {
		return nil, ErrRepartitionInFlight
	}
	mg := g.materializeLocked()
	snap := &Snapshot{G: mg, Seq: g.lastSeq}
	if p := g.placement.Load(); p != nil {
		assign := make([]int32, g.n)
		for v := graph.NodeID(0); v < g.n; v++ {
			b, _ := p.Block(v)
			assign[v] = b
		}
		prev, err := parhip.NewPartition(mg, assign, k, eps)
		if err != nil {
			return nil, fmt.Errorf("live: lift previous partition: %w", err)
		}
		snap.Prev = prev
	}
	g.marks = [4]int64{g.edgeAdds, g.edgeRemoves, g.nodeAdds, g.weightChanges}
	g.edgeAdds, g.edgeRemoves, g.nodeAdds, g.weightChanges = 0, 0, 0, 0
	g.inFlight = true
	return snap, nil
}

// AbortRepartition abandons the outstanding snapshot (the solver run
// failed or was cancelled) and returns its churn to the live counters so
// the controller sees the still-unincorporated drift.
func (g *Graph) AbortRepartition() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.inFlight {
		return
	}
	g.edgeAdds += g.marks[0]
	g.edgeRemoves += g.marks[1]
	g.nodeAdds += g.marks[2]
	g.weightChanges += g.marks[3]
	g.marks = [4]int64{}
	g.inFlight = false
}

// CompleteRepartition atomically swaps in the partition computed on the
// outstanding snapshot: the epoch increments, nodes appended since the
// snapshot get fresh provisional placements, and the per-block weight
// accounting is rebuilt against current node weights. Readers never
// observe a torn state — they see the old epoch until the single atomic
// store publishes the new one.
func (g *Graph) CompleteRepartition(p *parhip.Partition) error {
	if p == nil {
		return errors.New("live: CompleteRepartition: nil partition")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.inFlight {
		return errors.New("live: CompleteRepartition without BeginRepartition")
	}
	if p.NumNodes() > g.n {
		return fmt.Errorf("live: partition assigns %d nodes, live graph has %d", p.NumNodes(), g.n)
	}
	sp := g.tracer.Begin(0, "live.swap")
	old := g.placement.Load()
	epoch := int64(1)
	if old != nil {
		epoch = old.Epoch + 1
	}
	k := p.K()
	bw := make([]int64, k)
	for v := graph.NodeID(0); v < p.NumNodes(); v++ {
		bw[p.Block(v)] += g.nodeWeightLocked(v)
	}
	// Nodes appended after the snapshot: provisional, least-loaded block.
	extra := make([]int32, 0, g.n-p.NumNodes())
	for v := p.NumNodes(); v < g.n; v++ {
		best := int32(0)
		for b := int32(1); b < k; b++ {
			if bw[b] < bw[best] {
				best = b
			}
		}
		bw[best] += g.nodeWeightLocked(v)
		extra = append(extra, best)
	}
	g.blockWeights = bw
	g.mAtSwap = g.curM
	g.marks = [4]int64{}
	g.inFlight = false
	g.placement.Store(&Placement{Epoch: epoch, part: p, extra: extra})
	g.tracer.End2(sp, "epoch", epoch, "n", int64(g.n))
	return nil
}

// Placement is one epoch's immutable placement snapshot: the swapped-in
// partition plus provisional blocks for nodes appended since its snapshot
// was taken. Lookups are pure reads; a *Placement never mutates after
// publication.
type Placement struct {
	// Epoch counts swaps: 1 after the initial partition, incrementing on
	// every completed repartition. Monotonically increasing per Graph.
	Epoch int64

	part  *parhip.Partition
	extra []int32
}

// K returns the block count.
func (p *Placement) K() int32 { return p.part.K() }

// NumNodes returns how many nodes the placement answers for.
func (p *Placement) NumNodes() int32 { return p.part.NumNodes() + int32(len(p.extra)) }

// Block returns node v's block. ok is false when v is beyond the nodes the
// placement knows about (added after the snapshot this placement extends).
func (p *Placement) Block(v graph.NodeID) (int32, bool) {
	if v < 0 {
		return 0, false
	}
	if v < p.part.NumNodes() {
		return p.part.Block(v), true
	}
	if i := v - p.part.NumNodes(); int(i) < len(p.extra) {
		return p.extra[i], true
	}
	return 0, false
}

// Provisional reports whether node v's block is a provisional assignment
// (appended after the partition's snapshot) rather than a solver result.
func (p *Placement) Provisional(v graph.NodeID) bool {
	return v >= p.part.NumNodes() && v < p.NumNodes()
}

// Cut returns the partition's edge cut on its snapshot graph.
func (p *Placement) Cut() int64 { return p.part.Cut() }

// Feasible reports the partition's feasibility on its snapshot graph.
func (p *Placement) Feasible() bool { return p.part.Feasible() }

// Placement returns the current epoch's placement snapshot (nil before the
// first partition). The load is a single atomic pointer read — safe and
// cheap to call concurrently with ApplyBatch and CompleteRepartition.
func (g *Graph) Placement() *Placement { return g.placement.Load() }

// Stats is a point-in-time accounting snapshot for the controller and the
// status API.
type Stats struct {
	Seq   int64 // last applied batch sequence
	N     int32 // current node count
	M     int64 // current undirected edge count
	Epoch int64 // 0 before the first partition

	// Churn since the last snapshot handed to a repartition run.
	EdgeAdds      int64
	EdgeRemoves   int64
	NodeAdds      int64
	WeightChanges int64
	// PendingDeltas is the sum of the four counters above: mutations no
	// materialized snapshot has seen yet.
	PendingDeltas int64
	// ChurnFraction is (EdgeAdds+EdgeRemoves)/max(1, edges at last swap).
	ChurnFraction float64
	// Imbalance is the live max/avg-1 block weight imbalance under current
	// node weights and provisional placements (-1 before the first
	// partition).
	Imbalance float64
	// InFlight reports an outstanding BeginRepartition snapshot.
	InFlight bool
}

// Stats snapshots the accounting state.
func (g *Graph) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Stats{
		Seq:           g.lastSeq,
		N:             g.n,
		M:             g.curM,
		EdgeAdds:      g.edgeAdds,
		EdgeRemoves:   g.edgeRemoves,
		NodeAdds:      g.nodeAdds,
		WeightChanges: g.weightChanges,
		InFlight:      g.inFlight,
		Imbalance:     -1,
	}
	s.PendingDeltas = s.EdgeAdds + s.EdgeRemoves + s.NodeAdds + s.WeightChanges
	den := g.mAtSwap
	if den < 1 {
		den = 1
	}
	s.ChurnFraction = float64(s.EdgeAdds+s.EdgeRemoves) / float64(den)
	if p := g.placement.Load(); p != nil {
		s.Epoch = p.Epoch
		if len(g.blockWeights) > 0 {
			var total, mx int64
			for _, w := range g.blockWeights {
				total += w
				if w > mx {
					mx = w
				}
			}
			if total > 0 {
				s.Imbalance = float64(mx)/(float64(total)/float64(len(g.blockWeights))) - 1
			} else {
				s.Imbalance = 0
			}
		}
	}
	return s
}
