package dgraph

import (
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// runP executes fn on a P-rank world.
func runP(t *testing.T, P int, fn func(c *mpi.Comm)) {
	t.Helper()
	mpi.NewWorld(P).Run(fn)
}

func TestUniformVtxDist(t *testing.T) {
	vd := UniformVtxDist(10, 4)
	want := []int64{0, 3, 6, 8, 10}
	for i := range want {
		if vd[i] != want[i] {
			t.Fatalf("vtxdist = %v, want %v", vd, want)
		}
	}
	vd = UniformVtxDist(2, 4) // more ranks than nodes
	if vd[4] != 2 {
		t.Fatalf("vtxdist = %v", vd)
	}
}

func TestFromGraphPartitionsNodes(t *testing.T) {
	g := graph.Cycle(10)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		total := c.AllreduceSum1(int64(d.NLocal()))
		if total != 10 {
			t.Errorf("local counts sum to %d", total)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		if d.GlobalM != g.NumEdges() {
			t.Errorf("GlobalM = %d", d.GlobalM)
		}
	})
}

func TestGlobalLocalRoundTrip(t *testing.T) {
	g := gen.RGG(200, 3)
	runP(t, 3, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		for v := int32(0); v < d.NTotal(); v++ {
			gid := d.ToGlobal(v)
			lu, ok := d.ToLocal(gid)
			if !ok || lu != v {
				t.Errorf("rank %d: roundtrip failed for local %d (global %d)", c.Rank(), v, gid)
				return
			}
		}
	})
}

func TestOwnerConsistent(t *testing.T) {
	g := graph.Path(17)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		for gid := int64(0); gid < d.GlobalN; gid++ {
			o := d.Owner(gid)
			if gid >= d.VtxDist[o+1] || gid < d.VtxDist[o] {
				t.Errorf("Owner(%d) = %d but range is [%d,%d)", gid, o, d.VtxDist[o], d.VtxDist[o+1])
				return
			}
		}
	})
}

func TestGhostsMatchCutEdges(t *testing.T) {
	// In a path split into contiguous chunks each interior rank has exactly
	// 2 ghosts (one per side).
	g := graph.Path(20)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		want := int32(2)
		if c.Rank() == 0 || c.Rank() == 3 {
			want = 1
		}
		if d.NGhost() != want {
			t.Errorf("rank %d: %d ghosts, want %d", c.Rank(), d.NGhost(), want)
		}
	})
}

func TestAdjacentRanks(t *testing.T) {
	g := graph.Path(8)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		// Each rank owns 2 nodes; node 0 of interior ranks touches the rank
		// to the left, node 1 the rank to the right.
		if c.Rank() == 1 {
			if len(d.AdjacentRanks(0)) != 1 || d.AdjacentRanks(0)[0] != 0 {
				t.Errorf("rank 1 node 0 adjacent ranks: %v", d.AdjacentRanks(0))
			}
			if len(d.AdjacentRanks(1)) != 1 || d.AdjacentRanks(1)[0] != 2 {
				t.Errorf("rank 1 node 1 adjacent ranks: %v", d.AdjacentRanks(1))
			}
		}
		if !d.IsInterface(0) && c.Rank() > 0 {
			t.Errorf("rank %d node 0 should be interface", c.Rank())
		}
	})
}

func TestGatherReconstructs(t *testing.T) {
	g := gen.RGG(150, 5)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		got := d.Gather()
		if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			t.Errorf("gather: %v vs %v", got, g)
			return
		}
		for v := int32(0); v < g.NumNodes(); v++ {
			if got.NW[v] != g.NW[v] || got.Degree(v) != g.Degree(v) {
				t.Errorf("gather: node %d differs", v)
				return
			}
			a, b := g.Neighbors(v), got.Neighbors(v)
			for i := range a {
				if a[i] != b[i] || g.EdgeWeights(v)[i] != got.EdgeWeights(v)[i] {
					t.Errorf("gather: adjacency of %d differs", v)
					return
				}
			}
		}
	})
}

func TestLookupI64(t *testing.T) {
	g := graph.Cycle(12)
	runP(t, 3, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		// Store global ID * 10 as the value on each owner.
		vals := make([]int64, d.NLocal())
		for v := int32(0); v < d.NLocal(); v++ {
			vals[v] = d.ToGlobal(v) * 10
		}
		queries := []int64{0, 5, 11, int64(c.Rank())}
		got := d.LookupI64(vals, queries)
		for i, q := range queries {
			if got[i] != q*10 {
				t.Errorf("rank %d: lookup(%d) = %d", c.Rank(), q, got[i])
			}
		}
	})
}

func TestSyncGhosts(t *testing.T) {
	g := graph.Cycle(12)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		vals := make([]int64, d.NTotal())
		for v := int32(0); v < d.NLocal(); v++ {
			vals[v] = d.ToGlobal(v) + 100
		}
		d.SyncGhosts(vals)
		for v := d.NLocal(); v < d.NTotal(); v++ {
			if vals[v] != d.ToGlobal(v)+100 {
				t.Errorf("rank %d: ghost %d not synced: %d", c.Rank(), v, vals[v])
			}
		}
	})
}

func TestPushGhosts(t *testing.T) {
	g := graph.Cycle(12)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		vals := make([]int64, d.NTotal())
		// Everyone writes a recognizable value to every local node and
		// pushes all of them.
		changed := make([]int32, d.NLocal())
		for v := int32(0); v < d.NLocal(); v++ {
			vals[v] = d.ToGlobal(v)*7 + 1
			changed[v] = v
		}
		d.PushGhosts(vals, changed)
		for v := d.NLocal(); v < d.NTotal(); v++ {
			if vals[v] != d.ToGlobal(v)*7+1 {
				t.Errorf("rank %d: ghost %d has %d", c.Rank(), v, vals[v])
			}
		}
	})
}

func TestEdgeCutDistributed(t *testing.T) {
	g := graph.Path(16)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		part := make([]int64, d.NTotal())
		// Block = global ID / 8: one cut edge in the middle of the path.
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) / 8
		}
		if cut := d.EdgeCut(part); cut != 1 {
			t.Errorf("cut = %d, want 1", cut)
		}
	})
}

func TestBlockWeightsDistributed(t *testing.T) {
	g := graph.Path(16)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		part := make([]int64, d.NTotal())
		for v := int32(0); v < d.NTotal(); v++ {
			part[v] = d.ToGlobal(v) % 2
		}
		bw := d.BlockWeights(part, 2)
		if bw[0] != 8 || bw[1] != 8 {
			t.Errorf("block weights %v", bw)
		}
	})
}

func TestGlobalWeightAndMax(t *testing.T) {
	b := graph.NewBuilder(6)
	for v := int32(0); v < 6; v++ {
		b.SetNodeWeight(v, int64(v)+1)
	}
	b.AddEdge(0, 5)
	g := b.Build()
	runP(t, 3, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		if w := d.GlobalNodeWeight(); w != 21 {
			t.Errorf("global weight %d", w)
		}
		if mw := d.MaxNodeWeightGlobal(); mw != 6 {
			t.Errorf("max weight %d", mw)
		}
	})
}

func TestBuildFromParts(t *testing.T) {
	// Assemble a 4-cycle manually: rank owns nodes [2r, 2r+2).
	runP(t, 2, func(c *mpi.Comm) {
		vtxdist := []int64{0, 2, 4}
		lo := vtxdist[c.Rank()]
		nw := []int64{1, 1}
		var xadj []int64
		var adjG, adjw []int64
		xadj = append(xadj, 0)
		for i := int64(0); i < 2; i++ {
			gv := lo + i
			nbrs := []int64{(gv + 1) % 4, (gv + 3) % 4}
			for _, u := range nbrs {
				adjG = append(adjG, u)
				adjw = append(adjw, 1)
			}
			xadj = append(xadj, int64(len(adjG)))
		}
		d := Build(c, vtxdist, nw, xadj, adjG, adjw)
		if d.GlobalN != 4 || d.GlobalM != 4 {
			t.Errorf("rank %d: n=%d m=%d", c.Rank(), d.GlobalN, d.GlobalM)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		got := d.Gather()
		if got.NumNodes() != 4 || got.NumEdges() != 4 {
			t.Errorf("gathered %v", got)
		}
	})
}

func TestGhostFraction(t *testing.T) {
	g := graph.Path(16)
	runP(t, 4, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		// A 16-path has 15 edges -> 30 adjacency entries; 3 cut edges
		// contribute 6 ghost entries.
		got := d.GhostFraction()
		want := 6.0 / 30.0
		if got < want-1e-9 || got > want+1e-9 {
			t.Errorf("ghost fraction %v, want %v", got, want)
		}
	})
}

func TestSingleRankNoGhosts(t *testing.T) {
	g := gen.RGG(100, 1)
	runP(t, 1, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		if d.NGhost() != 0 {
			t.Errorf("%d ghosts on single rank", d.NGhost())
		}
		if err := d.Validate(); err != nil {
			t.Error(err)
		}
	})
}

// TestFromGraphAliasesAdjW: a rank's edge weights are its contiguous range
// of the input's array, shared rather than copied, and capped so nothing
// appended through the DGraph can reach a neighbouring rank's rows. A graph
// without stored weights gives ranks without stored weights, whose rows are
// whole, capped rows of ones.
func TestFromGraphAliasesAdjW(t *testing.T) {
	unit := gen.RGG(200, 3)
	if unit.AdjW != nil {
		t.Fatal("RGG stored unit weights")
	}
	adjw := make([]int64, len(unit.Adj))
	for v := int32(0); v < unit.NumNodes(); v++ {
		for i, u := range unit.Neighbors(v) {
			adjw[unit.XAdj[v]+int64(i)] = 1 + int64(u+v)%3
		}
	}
	g := graph.FromCSR(unit.XAdj, unit.Adj, adjw, unit.NW)
	for _, P := range []int{1, 3} {
		runP(t, P, func(c *mpi.Comm) {
			u := FromGraph(c, unit)
			if u.AdjW != nil {
				t.Errorf("P=%d rank %d: %d stored weights for a unit-weight graph", P, c.Rank(), len(u.AdjW))
			}
			for v := int32(0); v < u.NLocal(); v++ {
				ws := u.EdgeWeights(v)
				if len(ws) != int(u.Degree(v)) || cap(ws) != len(ws) || slices.ContainsFunc(ws, func(w int64) bool { return w != 1 }) {
					t.Errorf("P=%d rank %d node %d: weights %v (cap %d), want %d capped ones", P, c.Rank(), v, ws, cap(ws), u.Degree(v))
					break
				}
			}

			d := FromGraph(c, g)
			lo, hi := d.VtxDist[c.Rank()], d.VtxDist[c.Rank()+1]
			if g.XAdj[lo] == g.XAdj[hi] {
				return
			}
			if &d.AdjW[0] != &g.AdjW[g.XAdj[lo]] {
				t.Errorf("P=%d rank %d: AdjW does not alias the input's weights", P, c.Rank())
			}
			if want := g.XAdj[hi] - g.XAdj[lo]; int64(len(d.AdjW)) != want || cap(d.AdjW) != len(d.AdjW) {
				t.Errorf("P=%d rank %d: len/cap %d/%d, want %d/%d", P, c.Rank(), len(d.AdjW), cap(d.AdjW), want, want)
			}
		})
	}
}

func TestEmptyRankRanges(t *testing.T) {
	// More ranks than nodes: high ranks own nothing and must not crash.
	g := graph.Path(3)
	runP(t, 5, func(c *mpi.Comm) {
		d := FromGraph(c, g)
		if err := d.Validate(); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
		}
		got := d.Gather()
		if got.NumNodes() != 3 || got.NumEdges() != 2 {
			t.Errorf("rank %d gathered %v", c.Rank(), got)
		}
	})
}
