package sclp

import (
	"fmt"
	"testing"

	"repro/internal/dgraph"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/rng"
	"repro/internal/testutil"
)

// isolatedHeavyGraph spreads testutil.KernelGraph over every third ID and
// fills the two IDs after each kernel node with degree-0 nodes of weight
// 1..8: 480 nodes, about 330 of them isolated, interleaved with the rest.
func isolatedHeavyGraph(r *rng.RNG) *graph.Graph {
	k := testutil.KernelGraph(r, 3)
	b := graph.NewBuilder(3 * k.NumNodes())
	for v := int32(0); v < k.NumNodes(); v++ {
		b.SetNodeWeight(3*v, k.NW[v])
		b.SetNodeWeight(3*v+1, 1+r.Int64n(8))
		b.SetNodeWeight(3*v+2, 1+r.Int64n(8))
		ws := k.EdgeWeights(v)
		for i, u := range k.Neighbors(v) {
			if v < u {
				b.AddEdgeW(3*v, 3*u, ws[i])
			}
		}
	}
	return b.Build()
}

// packCheck walks one rank's own range in ID order and holds the degree-0
// nodes to the packing contract: every pack is a run of consecutive degree-0
// nodes of one constraint class, weighs at most u, is labelled by its first
// member's global ID, and was closed only because the next node of its class
// did not fit; no node with a neighbour carries a pack's label. It also
// wants some pack of two or more nodes and some closed pack, so both paths
// are taken. It returns the first breach.
func packCheck(n int, first int64, degree0 func(v int) bool, nw []int64,
	label func(v int) int64, class func(v int) int64, u int64) error {

	type pack struct {
		label, w int64
		size     int
	}
	var shared, closed int
	open := map[int64]*pack{} // class -> its current pack
	packClass := map[int64]int64{}
	for v := 0; v < n; v++ {
		if !degree0(v) {
			continue
		}
		l, c := label(v), class(v)
		p := open[c]
		if p != nil && l == p.label {
			p.w += nw[v]
			p.size++
			if p.size == 2 {
				shared++
			}
			if p.w > u {
				return fmt.Errorf("pack %d weighs %d > U=%d", l, p.w, u)
			}
			continue
		}
		if _, seen := packClass[l]; seen {
			return fmt.Errorf("node %d rejoins pack %d after its class moved on, or crosses classes", v, l)
		}
		if l != first+int64(v) {
			return fmt.Errorf("node %d opens a pack labelled %d, not its own ID %d", v, l, first+int64(v))
		}
		if p != nil {
			if p.w+nw[v] <= u {
				return fmt.Errorf("pack %d (weight %d) closed though node %d (weight %d) fits under U=%d",
					p.label, p.w, v, nw[v], u)
			}
			closed++
		}
		open[c] = &pack{label: l, w: nw[v], size: 1}
		packClass[l] = c
	}
	for v := 0; v < n; v++ {
		if _, isPack := packClass[label(v)]; isPack && !degree0(v) {
			return fmt.Errorf("node %d has neighbours but carries pack label %d", v, label(v))
		}
	}
	if shared == 0 || closed == 0 {
		return fmt.Errorf("%d shared packs, %d closed: want both paths taken", shared, closed)
	}
	return nil
}

// TestIsolatedNodesPacked holds ParCluster at P=1,2,3 to the packing contract of packIsolated, with and without a
// constraint, on a graph where two in three nodes have degree 0.
func TestIsolatedNodesPacked(t *testing.T) {
	const u = 12
	for trial := uint64(0); trial < 4; trial++ {
		r := rng.New(500 + trial)
		g := isolatedHeavyGraph(r)
		n := g.NumNodes()
		classOf := make([]int32, n)
		for v := range classOf {
			classOf[v] = r.Int31n(3)
		}
		for _, constrained := range []bool{false, true} {
			class := func(v int64) int64 {
				if !constrained {
					return 0
				}
				return int64(classOf[v])
			}
			name := fmt.Sprintf("trial %d constrained=%v", trial, constrained)
			for _, P := range []int{1, 2, 3} {
				mpi.NewWorld(P).Run(func(c *mpi.Comm) {
					d := dgraph.FromGraph(c, g)
					var constraint []int64
					if constrained {
						constraint = make([]int64, d.NTotal())
						for v := range constraint {
							constraint[v] = class(d.ToGlobal(int32(v)))
						}
					}
					labels := ParCluster(d, ParClusterConfig{U: u, Iterations: 3, DegreeOrder: true, Constraint: constraint, Seed: trial + 1})
					first := d.FirstGlobal()
					err := packCheck(int(d.NLocal()), first, func(v int) bool { return d.Degree(int32(v)) == 0 }, d.NW,
						func(v int) int64 { return labels[v] }, func(v int) int64 { return class(first + int64(v)) }, u)
					if err != nil {
						t.Errorf("%s P=%d rank %d: %v", name, P, c.Rank(), err)
					}
				})
			}

		}
	}
}
