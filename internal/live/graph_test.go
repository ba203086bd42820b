package live

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// applyAll wraps deltas into one batch at the next sequence number.
func applyAll(t *testing.T, g *Graph, seq int64, deltas ...Delta) BatchResult {
	t.Helper()
	res, err := g.ApplyBatch(seq, deltas)
	if err != nil {
		t.Fatalf("ApplyBatch(seq=%d): %v", seq, err)
	}
	return res
}

// completeWith runs a full Begin/solve/Complete cycle using a trivial
// round-robin partition of the snapshot graph.
func completeWith(t *testing.T, g *Graph, k int32) *parhip.Partition {
	t.Helper()
	snap, err := g.BeginRepartition(k, 0.03)
	if err != nil {
		t.Fatalf("BeginRepartition: %v", err)
	}
	assign := make([]int32, snap.G.NumNodes())
	for v := range assign {
		assign[v] = int32(v) % k
	}
	p, err := parhip.NewPartition(snap.G, assign, k, 0.03)
	if err != nil {
		t.Fatalf("NewPartition: %v", err)
	}
	if err := g.CompleteRepartition(p); err != nil {
		t.Fatalf("CompleteRepartition: %v", err)
	}
	return p
}

func TestApplyBatchMutations(t *testing.T) {
	lg := NewGraph(graph.Path(4)) // 0-1-2-3
	applyAll(t, lg, 1,
		Delta{Op: OpAddEdge, U: 0, V: 3},       // new edge, weight 1
		Delta{Op: OpAddEdge, U: 1, V: 2, W: 4}, // merge onto base edge
		Delta{Op: OpRemoveEdge, U: 2, V: 3},    // drop base edge
		Delta{Op: OpRemoveEdge, U: 0, V: 2},    // absent: no-op
		Delta{Op: OpAddNode, W: 7},             // node 4
		Delta{Op: OpAddEdge, U: 4, V: 0, W: 2}, // edge to the fresh node
		Delta{Op: OpSetNodeWeight, U: 1, W: 5}, // base-node override
	)
	mg := lg.Materialize()
	if err := mg.Validate(); err != nil {
		t.Fatalf("materialized graph invalid: %v", err)
	}
	if got, want := mg.NumNodes(), int32(5); got != want {
		t.Fatalf("n = %d, want %d", got, want)
	}
	// Edges now: {0,1}w1, {1,2}w5 (1+4), {0,3}w1, {0,4}w2 — {2,3} removed.
	if got, want := mg.NumEdges(), int64(4); got != want {
		t.Fatalf("m = %d, want %d", got, want)
	}
	if w, ok := mg.HasEdge(1, 2); !ok || w != 5 {
		t.Errorf("edge {1,2} = (%d,%v), want (5,true)", w, ok)
	}
	if _, ok := mg.HasEdge(2, 3); ok {
		t.Error("edge {2,3} should be removed")
	}
	if w, ok := mg.HasEdge(0, 4); !ok || w != 2 {
		t.Errorf("edge {0,4} = (%d,%v), want (2,true)", w, ok)
	}
	if mg.NW[1] != 5 || mg.NW[4] != 7 {
		t.Errorf("node weights NW[1]=%d NW[4]=%d, want 5 and 7", mg.NW[1], mg.NW[4])
	}

	s := lg.Stats()
	if s.EdgeAdds != 2 || s.EdgeRemoves != 1 || s.NodeAdds != 1 || s.WeightChanges != 2 {
		t.Errorf("churn counters = %+v, want adds=2 removes=1 nodeAdds=1 weightChanges=2", s)
	}
	if s.M != 4 || s.N != 5 || s.Seq != 1 {
		t.Errorf("stats m=%d n=%d seq=%d, want 4/5/1", s.M, s.N, s.Seq)
	}
}

func TestApplyBatchIdempotentReplay(t *testing.T) {
	lg := NewGraph(graph.Path(4))
	d := []Delta{{Op: OpAddEdge, U: 0, V: 2}}
	if res := applyAll(t, lg, 1, d...); res.Replayed || res.Applied != 1 {
		t.Fatalf("first apply = %+v", res)
	}
	// Retry of the same sequence: no-op, flagged as replay.
	res, err := lg.ApplyBatch(1, d)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Replayed || res.Applied != 0 || res.Seq != 1 {
		t.Fatalf("replay result = %+v, want Replayed with seq 1", res)
	}
	if s := lg.Stats(); s.EdgeAdds != 1 || s.M != 4 {
		t.Fatalf("replay mutated state: %+v", s)
	}
	// A gap is an error and applies nothing.
	if _, err := lg.ApplyBatch(3, d); !errors.Is(err, ErrSequenceGap) {
		t.Fatalf("gap error = %v, want ErrSequenceGap", err)
	}
	if s := lg.Stats(); s.Seq != 1 {
		t.Fatalf("gap advanced seq to %d", s.Seq)
	}
}

func TestApplyBatchAtomicValidation(t *testing.T) {
	lg := NewGraph(graph.Path(4))
	_, err := lg.ApplyBatch(1, []Delta{
		{Op: OpAddEdge, U: 0, V: 2},
		{Op: OpAddEdge, U: 0, V: 99}, // out of range: whole batch must fail
	})
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if s := lg.Stats(); s.Seq != 0 || s.EdgeAdds != 0 || s.M != 3 {
		t.Fatalf("failed batch leaked state: %+v", s)
	}
	// A batch may reference a node added earlier in the same batch.
	applyAll(t, lg, 1,
		Delta{Op: OpAddNode},
		Delta{Op: OpAddEdge, U: 4, V: 1},
	)
	if s := lg.Stats(); s.N != 5 || s.M != 4 {
		t.Fatalf("intra-batch node reference failed: %+v", s)
	}
	// Self-loops rejected.
	if _, err := lg.ApplyBatch(2, []Delta{{Op: OpAddEdge, U: 2, V: 2}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

// TestApplyBatchRejectsWeightOverflow: a merge onto an existing edge that
// would pass MaxInt64 fails the batch, whether the edge's weight comes from
// the base or from earlier deltas of the same batch. Before the check, the
// weight wrapped negative and Materialize dropped an edge Stats still
// counted.
func TestApplyBatchRejectsWeightOverflow(t *testing.T) {
	for _, tc := range []struct {
		name   string
		deltas []Delta
	}{
		{"onto base edge", []Delta{{Op: OpAddEdge, U: 0, V: 1, W: math.MaxInt64}}},
		{"within batch", []Delta{
			{Op: OpAddEdge, U: 0, V: 9, W: math.MaxInt64/2 + 1},
			{Op: OpAddEdge, U: 0, V: 9, W: math.MaxInt64/2 + 1},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lg := NewGraph(graph.Grid2D(8, 8))
			if _, err := lg.ApplyBatch(1, tc.deltas); err == nil {
				t.Fatal("overflowing batch accepted")
			}
			if s, m := lg.Stats(), lg.Materialize().NumEdges(); s.Seq != 0 || s.M != m {
				t.Fatalf("stats seq=%d m=%d, materialized m=%d", s.Seq, s.M, m)
			}
		})
	}
	// A removal resets the weight a later add merges onto, and the largest
	// weight that fits is accepted.
	lg := NewGraph(graph.Grid2D(8, 8))
	applyAll(t, lg, 1,
		Delta{Op: OpAddEdge, U: 0, V: 1, W: math.MaxInt64 - 1},
		Delta{Op: OpRemoveEdge, U: 0, V: 1},
		Delta{Op: OpAddEdge, U: 0, V: 1, W: math.MaxInt64},
	)
	mg := lg.Materialize()
	if w, ok := mg.HasEdge(0, 1); !ok || w != math.MaxInt64 || lg.Stats().M != mg.NumEdges() {
		t.Fatalf("edge {0,1} = (%d,%v), stats m=%d, materialized m=%d", w, ok, lg.Stats().M, mg.NumEdges())
	}
}

func TestMaterializeMatchesPerturb(t *testing.T) {
	// Applying gen.PerturbDeltas through the live overlay must land on
	// exactly the graph gen.Perturb builds — same fingerprint.
	base, _ := gen.PlantedPartition(800, 8, 8, 0.3, 42)
	deltas := gen.PerturbDeltas(base, 0.05, 7)
	want := gen.Perturb(base, 0.05, 7)

	lg := NewGraph(base)
	batch := make([]Delta, len(deltas))
	for i, d := range deltas {
		op := OpRemoveEdge
		if d.Add {
			op = OpAddEdge
		}
		batch[i] = Delta{Op: op, U: d.U, V: d.V, W: d.W}
	}
	applyAll(t, lg, 1, batch...)
	got := lg.Materialize()
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("live materialize fingerprint %s != Perturb fingerprint %s",
			got.Fingerprint(), want.Fingerprint())
	}
	// Materialize is deterministic across calls despite map iteration.
	if lg.Materialize().Fingerprint() != got.Fingerprint() {
		t.Fatal("Materialize not deterministic")
	}
}

func TestRepartitionLifecycle(t *testing.T) {
	lg := NewGraph(graph.Grid2D(8, 8))
	if lg.Placement() != nil {
		t.Fatal("placement before first partition")
	}

	// Cold run: no previous partition.
	snap, err := lg.BeginRepartition(4, 0.03)
	if err != nil {
		t.Fatalf("BeginRepartition: %v", err)
	}
	if snap.Prev != nil {
		t.Fatal("cold snapshot carries a previous partition")
	}
	if _, err := lg.BeginRepartition(4, 0.03); !errors.Is(err, ErrRepartitionInFlight) {
		t.Fatalf("second Begin = %v, want ErrRepartitionInFlight", err)
	}
	assign := make([]int32, snap.G.NumNodes())
	for v := range assign {
		assign[v] = int32(v) % 4
	}
	p, err := parhip.NewPartition(snap.G, assign, 4, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.CompleteRepartition(p); err != nil {
		t.Fatalf("CompleteRepartition: %v", err)
	}
	pl := lg.Placement()
	if pl == nil || pl.Epoch != 1 {
		t.Fatalf("placement after first swap = %+v, want epoch 1", pl)
	}
	if b, ok := pl.Block(5); !ok || b != 5%4 {
		t.Fatalf("Block(5) = (%d,%v)", b, ok)
	}

	// Drift, then a warm run: snapshot must lift the current placement.
	applyAll(t, lg, 1, Delta{Op: OpAddEdge, U: 0, V: 63})
	snap2, err := lg.BeginRepartition(4, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Prev == nil {
		t.Fatal("warm snapshot missing previous partition")
	}
	if got := snap2.Prev.Block(5); got != 5%4 {
		t.Fatalf("lifted prev Block(5) = %d", got)
	}
	if s := lg.Stats(); !s.InFlight || s.PendingDeltas != 0 {
		t.Fatalf("churn not moved into snapshot: %+v", s)
	}
	// Abort returns the churn.
	lg.AbortRepartition()
	if s := lg.Stats(); s.InFlight || s.EdgeAdds != 1 {
		t.Fatalf("abort did not restore churn: %+v", s)
	}

	// Complete a second cycle: epoch must increase monotonically.
	completeWith(t, lg, 4)
	if pl := lg.Placement(); pl.Epoch != 2 {
		t.Fatalf("epoch after second swap = %d, want 2", pl.Epoch)
	}
	if s := lg.Stats(); s.PendingDeltas != 0 || s.ChurnFraction != 0 {
		t.Fatalf("swap did not reset churn: %+v", s)
	}
	if err := lg.CompleteRepartition(p); err == nil {
		t.Fatal("CompleteRepartition without Begin accepted")
	}
}

func TestProvisionalPlacementOfAddedNodes(t *testing.T) {
	lg := NewGraph(graph.Grid2D(4, 4))
	completeWith(t, lg, 4)
	pl := lg.Placement()

	// A node added after the swap gets a provisional block at the same
	// epoch, visible immediately.
	applyAll(t, lg, 1, Delta{Op: OpAddNode, W: 3})
	pl2 := lg.Placement()
	if pl2.Epoch != pl.Epoch {
		t.Fatalf("node add changed epoch: %d -> %d", pl.Epoch, pl2.Epoch)
	}
	b, ok := pl2.Block(16)
	if !ok {
		t.Fatal("added node has no placement")
	}
	if b < 0 || b >= 4 {
		t.Fatalf("provisional block %d out of range", b)
	}
	if !pl2.Provisional(16) {
		t.Fatal("added node not flagged provisional")
	}
	if pl2.Provisional(3) {
		t.Fatal("base node flagged provisional")
	}
	// The old snapshot still answers only its own nodes — immutable.
	if _, ok := pl.Block(16); ok {
		t.Fatal("old placement snapshot answers for a node added later")
	}

	// Nodes added while a repartition is in flight get provisional blocks
	// at the swap.
	snap, err := lg.BeginRepartition(4, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	applyAll(t, lg, 2, Delta{Op: OpAddNode}, Delta{Op: OpAddNode})
	assign := make([]int32, snap.G.NumNodes())
	p, err := parhip.NewPartition(snap.G, assign, 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.CompleteRepartition(p); err != nil {
		t.Fatal(err)
	}
	pl3 := lg.Placement()
	if pl3.NumNodes() != 19 {
		t.Fatalf("placement answers %d nodes, want 19", pl3.NumNodes())
	}
	for v := int32(17); v < 19; v++ {
		if _, ok := pl3.Block(v); !ok {
			t.Fatalf("in-flight-added node %d has no placement", v)
		}
	}
	if _, ok := pl3.Block(19); ok {
		t.Fatal("placement answers beyond node count")
	}
}

func TestChurnFractionAccounting(t *testing.T) {
	lg := NewGraph(graph.Cycle(100)) // m = 100
	completeWith(t, lg, 4)
	var batch []Delta
	for v := int32(0); v < 5; v++ {
		batch = append(batch, Delta{Op: OpRemoveEdge, U: v, V: v + 1})
	}
	applyAll(t, lg, 1, batch...)
	s := lg.Stats()
	if s.ChurnFraction != 0.05 {
		t.Fatalf("churn fraction = %g, want 0.05 (5 of 100 edges)", s.ChurnFraction)
	}
	if s.Imbalance < 0 {
		t.Fatalf("imbalance unknown after swap: %g", s.Imbalance)
	}
}

func TestLiveTracerSpans(t *testing.T) {
	tr := obs.NewTracer(1)
	lg := NewGraph(graph.Path(8))
	lg.SetTracer(tr)
	applyAll(t, lg, 1, Delta{Op: OpAddEdge, U: 0, V: 7})
	completeWith(t, lg, 2)
	names := testutil.SpanNames(t, tr, 0)
	for _, want := range []string{"live.apply_batch", "live.materialize", "live.swap"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("span %q not recorded (have %v)", want, names)
		}
	}
}

// TestConcurrentReadersNeverTorn hammers placement lookups while batches
// apply and epochs swap; under -race this proves the lock-free read path.
func TestConcurrentReadersNeverTorn(t *testing.T) {
	lg := NewGraph(graph.Grid2D(16, 16))
	completeWith(t, lg, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEpoch int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				pl := lg.Placement()
				if pl == nil {
					t.Error("placement vanished")
					return
				}
				if pl.Epoch < lastEpoch {
					t.Errorf("epoch went backwards: %d -> %d", lastEpoch, pl.Epoch)
					return
				}
				lastEpoch = pl.Epoch
				n := pl.NumNodes()
				for v := int32(0); v < n; v += 37 {
					if b, ok := pl.Block(v); !ok || b < 0 || b >= pl.K() {
						t.Errorf("torn read: Block(%d) = (%d,%v) at epoch %d", v, b, ok, pl.Epoch)
						return
					}
				}
			}
		}()
	}

	seq := int64(0)
	for i := 0; i < 30; i++ {
		seq++
		u := int32(i % 255)
		applyAll(t, lg, seq,
			Delta{Op: OpRemoveEdge, U: u, V: u + 1},
			Delta{Op: OpAddEdge, U: u, V: (u + 7) % 256},
			Delta{Op: OpAddNode},
		)
		if i%5 == 4 {
			completeWith(t, lg, 4)
		}
	}
	close(stop)
	wg.Wait()

	if pl := lg.Placement(); pl.Epoch != 7 {
		t.Fatalf("final epoch = %d, want 7 (1 initial + 6 swaps)", pl.Epoch)
	}
}
